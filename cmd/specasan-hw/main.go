// specasan-hw prints the Table 3 hardware-cost model: the area, static power
// and dynamic energy overheads of ARM MTE, SpecASan, and SpecASan+CFI on the
// affected core structures.
package main

import (
	"fmt"
	"io"
	"os"

	"specasan/internal/hwcost"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintf(stderr, "specasan-hw: takes no arguments, got %q\n", args)
		return 2
	}
	fmt.Fprint(stdout, hwcost.Format(hwcost.Model()))
	return 0
}
