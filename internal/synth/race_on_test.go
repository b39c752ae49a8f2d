//go:build race

package synth

// raceEnabled reports that this binary was built with -race, which
// changes what the runtime allocates.
const raceEnabled = true
