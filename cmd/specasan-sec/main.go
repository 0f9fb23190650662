// specasan-sec runs the Table 1 security evaluation: every attack PoC under
// every mitigation column, printing the full/partial/none verdict matrix,
// and optionally the per-variant leak details.
//
// Usage:
//
//	specasan-sec              # the Table 1 matrix
//	specasan-sec -detail      # per-variant outcomes
//	specasan-sec -attack RIDL # a single row
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"specasan/internal/attacks"
	"specasan/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	f := flag.NewFlagSet("specasan-sec", flag.ContinueOnError)
	f.SetOutput(stderr)
	detail := f.Bool("detail", false, "print per-variant outcomes")
	one := f.String("attack", "", "evaluate a single attack by name")
	if err := f.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if err := evaluate(stdout, *detail, *one); err != nil {
		fmt.Fprintln(stderr, "specasan-sec:", err)
		return 1
	}
	return 0
}

func evaluate(stdout io.Writer, detail bool, one string) error {
	if !detail && one == "" {
		return harness.SecurityMatrix(stdout)
	}
	for _, a := range attacks.All() {
		if one != "" && a.Name != one {
			continue
		}
		fmt.Fprintf(stdout, "%s [%s]\n", a.Name, a.Class)
		for _, mit := range attacks.TableMitigations() {
			verdict, outs, err := a.Evaluate(mit)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  %-13s %s (%s)\n", mit, verdict, verdict.Word())
			if detail {
				for _, o := range outs {
					fmt.Fprintf(stdout, "    %-30s leaked=%-5v secretReads=%-3d events=%v\n",
						o.Variant, o.Leaked, o.SecretReads, o.Events)
				}
			}
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
