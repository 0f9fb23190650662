package cpu

import (
	"fmt"
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/golden"
	"specasan/internal/isa"
)

// TestGoldenDiffNamesEachField runs a program that leaves state in every
// field GoldenDiff compares (registers, NZCV, SVC output, a stored byte and
// tag, a non-zero exit code) against its golden twin, edits one field, and
// requires entries naming only that field, so dropping any one comparison
// from GoldenDiff fails.
func TestGoldenDiffNamesEachField(t *testing.T) {
	prog := asm.MustAssemble(`
_start:
    ADR  X10, buf
    IRG  X10, X10
    STG  X10, [X10]
    MOV  X1, #42
    STR  X1, [X10]
    MOV  X0, #7
    SVC  #1
    CMP  X1, #42
    SVC  #0
    .org 0x40000
buf:
    .space 32
`)
	const far = 0x7000_0123 // on a page no data block covers
	cases := []struct {
		name string
		edit func(*Machine, *golden.Interp, *golden.Result)
		want string // prefix of every entry; "" = agrees
		n    int    // number of entries
	}{
		{name: "clean", edit: func(*Machine, *golden.Interp, *golden.Result) {}},
		{"register", func(_ *Machine, _ *golden.Interp, r *golden.Result) { r.Regs[isa.X5] ^= 1 }, "core 0: X5 = 0x0, golden 0x1", 1},
		{"flags", func(_ *Machine, _ *golden.Interp, r *golden.Result) { r.Flags.Z = !r.Flags.Z }, "core 0: flags ", 1},
		{"output", func(_ *Machine, _ *golden.Interp, r *golden.Result) { r.Output = []byte("8\n") }, "core 0: output ", 1},
		{"exit code", func(_ *Machine, _ *golden.Interp, r *golden.Result) { r.ExitCode = 8 }, "core 0: exit code 0x7, golden 0x8", 1},
		{"byte", func(_ *Machine, ip *golden.Interp, _ *golden.Result) { ip.Mem.SetByte(far, 1) },
			fmt.Sprintf("core 0: mem[%#x] = 0x0, golden 0x1", far), 1},
		{"tag", func(_ *Machine, ip *golden.Interp, _ *golden.Result) { ip.Mem.Tags.SetLock(0x40010, 3) },
			"core 0: tag granule 0x40010: machine lock 0, golden 3", 1},
		{"golden fault", func(_ *Machine, _ *golden.Interp, r *golden.Result) { r.Reason = golden.StopTagFault },
			"core 0: golden stopped with tag-fault", 1},
		{"machine fault", func(m *Machine, _ *golden.Interp, _ *golden.Result) { m.Core(0).Faulted = true },
			"core 0: machine faulted", 1},
		{"running", func(m *Machine, _ *golden.Interp, _ *golden.Result) { m.Core(0).Halted = false },
			"core 0: still running", 1},
		{"capped", func(_ *Machine, ip *golden.Interp, _ *golden.Result) {
			for a := uint64(far); a < far+40; a++ {
				ip.Mem.SetByte(a, 1)
			}
		}, "core 0: mem[", maxGoldenDiffs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMachine(core.DefaultConfig(), core.SpecASan, prog)
			if err != nil {
				t.Fatal(err)
			}
			if res := m.Run(100_000); !m.Core(0).Halted || res.Faulted {
				t.Fatalf("run did not exit cleanly: %v", res)
			}
			ip := NewGolden(prog, true, 0)
			res := ip.Run(1000)
			tc.edit(m, ip, res)
			d := m.GoldenDiff(0, ip, res)
			if len(d) != tc.n {
				t.Fatalf("GoldenDiff = %q, want %d entries starting %q", d, tc.n, tc.want)
			}
			for _, e := range d {
				if !strings.HasPrefix(e, tc.want) {
					t.Fatalf("GoldenDiff entry %q, want it to start %q", e, tc.want)
				}
			}
		})
	}
}

// TestGoldenDiffMultiCoreSkipsMemory: each core of a 2-core machine stores
// to its own slot of the shared image, which neither twin's private image
// holds in full, yet both cores agree with their twins.
func TestGoldenDiffMultiCoreSkipsMemory(t *testing.T) {
	prog := asm.MustAssemble(`
_start:
    ADR  X10, buf
    LSL  X1, X0, #3
    ADD  X2, X0, #1
    STR  X2, [X10, X1]
    SVC  #0
    .org 0x40000
buf:
    .space 16
`)
	cfg := core.DefaultConfig()
	cfg.Cores = 2
	m, err := NewMachine(cfg, core.Unsafe, prog)
	if err != nil {
		t.Fatal(err)
	}
	m.Core(1).SetReg(isa.X0, 1)
	if res := m.Run(100_000); res.TimedOut || res.Faulted {
		t.Fatalf("run: %v", res)
	}
	for i := range m.Cores {
		ip := NewGolden(prog, false, i)
		if d := m.GoldenDiff(i, ip, ip.Run(1000)); len(d) != 0 {
			t.Errorf("GoldenDiff = %q, want none", d)
		}
	}
}
