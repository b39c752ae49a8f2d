// Command app is the reachability check's fixture: its main is the only
// root of the module.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Double(lib.Unit("gpu")))
}
