package cpu

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"specasan/internal/asm"
	"specasan/internal/cache"
	"specasan/internal/core"
)

// stateVisit is one pair of pointers stateDiff has entered, so shared and
// cyclic references (a core's TSH points back at the core) are walked once.
type stateVisit struct {
	a, b uintptr
	t    reflect.Type
}

// stateDiff compares two values of one type field by field, unexported
// fields included, and returns the path to the first difference, or "".
// It is reflect.DeepEqual with two allowances: func-valued hooks compare by
// nil-ness only (a closure is never equal to another), and an empty slice
// equals a nil one.
func stateDiff(a, b reflect.Value, seen map[stateVisit]bool) string {
	switch a.Kind() {
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf(": nil %v != %v", a.IsNil(), b.IsNil())
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf(": nil %v != %v", a.IsNil(), b.IsNil())
			}
			return ""
		}
		v := stateVisit{a.Pointer(), b.Pointer(), a.Type()}
		if seen[v] {
			return ""
		}
		seen[v] = true
		return stateDiff(a.Elem(), b.Elem(), seen)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf(": nil %v != %v", a.IsNil(), b.IsNil())
			}
			return ""
		}
		if a.Elem().Type() != b.Elem().Type() {
			return fmt.Sprintf(": %v != %v", a.Elem().Type(), b.Elem().Type())
		}
		return stateDiff(a.Elem(), b.Elem(), seen)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf(": len %d != %d", a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := stateDiff(a.Index(i), b.Index(i), seen); d != "" {
				return fmt.Sprintf("[%d]%s", i, d)
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := stateDiff(a.Field(i), b.Field(i), seen); d != "" {
				return "." + a.Type().Field(i).Name + d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf(": len %d != %d", a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("[%v]: missing", it.Key())
			}
			if d := stateDiff(it.Value(), bv, seen); d != "" {
				return fmt.Sprintf("[%v]%s", it.Key(), d)
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf(": %v != %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf(": %d != %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf(": %d != %d", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Sprintf(": %v != %v", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf(": %q != %q", a.String(), b.String())
		}
	default:
		return fmt.Sprintf(": unhandled kind %v", a.Kind())
	}
	return ""
}

// machineDiff is stateDiff over two whole machines.
func machineDiff(a, b *Machine) string {
	return stateDiff(reflect.ValueOf(a), reflect.ValueOf(b), map[stateVisit]bool{})
}

// emptyPools drops every released array the recycling pools hold: each
// garbage collection moves a sync.Pool's contents to its victim cache and
// drops the previous victims, so two leave every pool empty.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// recycledArrays maps each array Release hands back to its kind: every
// core's ROB, TSH ring, PHT and BTB, every allocated cache line chunk, the
// directory slots, and the image's page table and page frames.
func recycledArrays(m *Machine) map[unsafe.Pointer]string {
	out := map[unsafe.Pointer]string{}
	add := func(kind string, v reflect.Value) {
		if !v.IsNil() {
			out[v.UnsafePointer()] = kind
		}
	}
	field := func(v reflect.Value, name string) reflect.Value { return v.Elem().FieldByName(name) }
	for _, c := range m.Cores {
		add("ROB", reflect.ValueOf(c.rob))
		add("TSH ring", field(reflect.ValueOf(c.tsh), "slots"))
		add("PHT", field(reflect.ValueOf(c.pred), "pht"))
		add("BTB", field(reflect.ValueOf(c.pred), "btb"))
	}
	for _, l := range append(append([]*cache.Level{m.Hier.L2}, m.Hier.L1I...), m.Hier.L1D...) {
		chunks := field(reflect.ValueOf(l), "chunks")
		for i := 0; i < chunks.Len(); i++ {
			add("line chunk", chunks.Index(i))
		}
	}
	add("directory", field(field(reflect.ValueOf(m.Hier), "dir"), "slots"))
	root := field(reflect.ValueOf(m.Img), "root")
	add("page table", root)
	for i := 0; i < root.Len(); i++ {
		add("page frame", root.Index(i))
	}
	return out
}

// recycledKinds names the kinds recycledArrays reports that every run of
// TestRecycledMachineIsFresh must see reused. A page table is reused only
// when consecutive programs need one of the same size, which four of its
// cases do; under the race detector, which drops a quarter of what pools
// are given, all four can miss, so its count is reported but not required.
var recycledKinds = []string{"ROB", "TSH ring", "PHT", "BTB", "line chunk", "directory", "page frame"}

// SPMD test programs of different shapes: a coherence ping-pong, the
// Spectre-v1 gadget and indirect calls.
var recycleProgs = []func(cores int, mit core.Mitigation) func(t *testing.T) *Machine{
	buildCoherence, buildSpectreSPMD, buildIndirectCalls,
}

// indirectCalls calls through a table of function pointers, so a run trains
// the BTB and the indirect predictor, and prints its result.
const indirectCalls = `
_start:
    ADR  X9, table
    ADR  X3, f0
    STR  X3, [X9]
    ADR  X3, f1
    STR  X3, [X9, #8]
    ADR  X3, f2
    STR  X3, [X9, #16]
    ADR  X3, f3
    STR  X3, [X9, #24]
    MOV  X13, #24
    MOV  X0, #1
loop:
    AND  X1, X13, #3
    LSL  X1, X1, #3
    LDR  X2, [X9, X1]
    BLR  X2
    SUB  X13, X13, #1
    CBNZ X13, loop
    SVC  #1
    SVC  #0
f0:
    BTI
    ADD  X0, X0, #3
    RET
f1:
    BTI
    ADD  X0, X0, X0
    RET
f2:
    BTI
    EOR  X0, X0, #5
    RET
f3:
    BTI
    SUB  X0, X0, #1
    RET
    .org 0x60000
table:
    .space 32
`

func buildIndirectCalls(cores int, mit core.Mitigation) func(t *testing.T) *Machine {
	return func(t *testing.T) *Machine {
		t.Helper()
		prog, err := asm.Assemble(indirectCalls)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Cores = cores
		m, err := NewMachine(cfg, mit, prog)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

// TestRecycledMachineIsFresh pins the recycling contract: a machine built
// right after another machine, running a different program under a
// different policy, was released must be indistinguishable from one built
// and run on empty pools — before its first step, and after running to the
// end, down to every counter, oracle event, trace event, console byte and
// image byte. It covers every registered mitigation on one core and a
// 4-core config, and requires that the recycled machines really were built
// on released storage of every kind in recycledKinds.
func TestRecycledMachineIsFresh(t *testing.T) {
	type build = func(t *testing.T) *Machine
	type tc struct {
		name       string
		prev, next build
	}
	var cases []tc
	mits := core.RegisteredMitigations()
	for i, mit := range mits {
		other := mits[(i+1)%len(mits)]
		cases = append(cases, tc{fmt.Sprintf("%v-after-%v", mit, other),
			recycleProgs[i%3](1, other), recycleProgs[(i+1)%3](1, mit)})
	}
	cases = append(cases,
		tc{"4core-SpecASan-after-GhostMinion", buildCoherence(4, core.GhostMinion), buildSpectreSPMD(4, core.SpecASan)},
		tc{"4core-STT-after-Unsafe", buildIndirectCalls(4, core.Unsafe), buildCoherence(4, core.STT)})

	const budget = 500_000
	reused := map[string]int{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The references: built, and one of them run, while every pool
			// is empty and nothing is released.
			emptyPools()
			unstepped, fresh := c.next(t), c.next(t)
			want := runFingerprint(fresh, budget)

			prev := c.prev(t)
			if res := prev.Run(budget); res.TimedOut || res.Err != nil {
				t.Fatalf("previous machine did not finish: %v", res)
			}
			released := recycledArrays(prev)
			prev.Release()

			recycled := c.next(t)
			if d := machineDiff(recycled, unstepped); d != "" {
				t.Fatalf("recycled machine differs from a fresh one before its first step: machine%s", d)
			}
			if got := runFingerprint(recycled, budget); got != want {
				t.Fatalf("recycled machine's run diverged:\n--- recycled ---\n%s\n--- fresh ---\n%s", got, want)
			}
			if d := machineDiff(recycled, fresh); d != "" {
				t.Fatalf("recycled machine differs from a fresh one after the run: machine%s", d)
			}
			for p, kind := range recycledArrays(recycled) {
				if released[p] == kind {
					reused[kind]++
				}
			}
		})
	}
	for _, kind := range recycledKinds {
		if reused[kind] == 0 {
			t.Errorf("no machine reused a released %s", kind)
		}
	}
	t.Logf("%d cases; arrays built on released storage: %v", len(cases), reused)
}

// TestReleasedMachinePanics pins that Release really takes the storage
// away: stepping a released machine that still has work must panic instead
// of writing into arrays another machine may own by now, while what its
// run returned stays readable.
func TestReleasedMachinePanics(t *testing.T) {
	m := buildCoherence(1, core.SpecASan)(t)
	res := m.Run(200)
	if !res.TimedOut {
		t.Fatalf("machine finished in 200 cycles; the test needs one still running: %v", res)
	}
	before := fmt.Sprintf("%v %s %v", res, res.Stats, res.CoreStatuses)
	m.Release()
	m.Release() // a second release is harmless
	if after := fmt.Sprintf("%v %s %v", res, res.Stats, res.CoreStatuses); after != before {
		t.Fatalf("run result changed on release:\n%s\n%s", before, after)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("stepping a released machine did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "index out of range") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	for i := 0; i < 10; i++ {
		m.Step()
	}
}
