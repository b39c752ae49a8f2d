// Package lib holds one reachable function, one method that only fmt
// calls (through fmt.Stringer) and one function nothing calls.
package lib

// Unit is a label that prints itself.
type Unit string

// String is called by fmt only, through the fmt.Stringer interface.
func (u Unit) String() string { return "unit " + string(u) }

// Double is called by the command.
func Double(u Unit) [2]Unit { return [2]Unit{u, u} }

// Unused is called by nothing; the check must report it.
func Unused() int { return 1 }
