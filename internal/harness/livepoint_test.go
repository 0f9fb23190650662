package harness

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/core"
	"specasan/internal/cpu"
	"specasan/internal/golden"
	"specasan/internal/workloads"
)

// stateDiff lists how two golden states differ: PC, registers, flags,
// instruction count, output, and every byte and tag of every page either
// image maps.
func stateDiff(a, b *golden.State) []string {
	var out []string
	if a.PC != b.PC || a.Regs != b.Regs || a.Flags != b.Flags || a.Insts != b.Insts {
		out = append(out, fmt.Sprintf("pc/regs/flags/insts differ: %#x/%d vs %#x/%d", a.PC, a.Insts, b.PC, b.Insts))
	}
	if !bytes.Equal(a.Output, b.Output) {
		out = append(out, "output differs")
	}
	pages := append(a.Mem.PageAddrs(), b.Mem.PageAddrs()...)
	slices.Sort(pages)
	for _, p := range slices.Compact(pages) {
		ad, al := a.Mem.FrameAt(p)
		bd, bl := b.Mem.FrameAt(p)
		if !bytes.Equal(ad, bd) || !slices.Equal(al, bl) {
			out = append(out, fmt.Sprintf("page %#x differs", p))
		}
	}
	return out
}

// ringOf lists a ring's touches in Each order.
func ringOf(tr *golden.TouchRing) []uint64 {
	var out []uint64
	tr.Each(func(addr uint64, write, ifetch bool) {
		v := addr
		if write {
			v |= 1
		}
		if ifetch {
			v |= 2
		}
		out = append(out, v)
	})
	return out
}

// checkLivePoints compares the live-points a liveWalker hands out for
// starts with those of one walk from instruction 0 that stops at each start
// in turn, as the sampler walked before it kept checkpoints. It returns the
// instructions both executed and how many live-points had a wrapped ring.
func checkLivePoints(t *testing.T, name string, prog *asm.Program, mteOn bool, starts []uint64) (walked, progressive uint64, wrapped int) {
	t.Helper()
	fres, cps := walkCheckpointed(cpu.NewGolden(prog, mteOn, 0), 1<<40)
	if fres.Reason != golden.StopExit {
		t.Fatalf("%s: pass 1 stopped with %v", name, fres.Reason)
	}
	if len(cps) > maxCheckpoints {
		t.Fatalf("%s: %d checkpoints held, bound %d", name, len(cps), maxCheckpoints)
	}
	lw := newLiveWalker(prog, mteOn, cps)
	lw.plan(starts)
	defer lw.release()
	one := cpu.NewGolden(prog, mteOn, 0)
	one.Touch = golden.NewTouchRing(warmTouches)
	for i, s := range starts {
		if s > one.Insts() {
			progressive += one.Run(s - one.Insts()).Insts
		}
		ip, err := lw.at(i)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range stateDiff(ip.Snapshot(), one.Snapshot()) {
			t.Errorf("%s at %d: %s", name, s, d)
		}
		if got, want := ringOf(ip.Touch), ringOf(one.Touch); !slices.Equal(got, want) {
			t.Errorf("%s at %d: ring of %d touches differs from the one walk's %d", name, s, len(got), len(want))
		}
		if one.Touch.Added() > warmTouches {
			wrapped++
		}
	}
	return lw.walked, progressive, wrapped
}

// gridStarts places k windows evenly over a program of total instructions,
// as the sampler's plan does without a fast-forward.
func gridStarts(total uint64, k int) []uint64 {
	var out []uint64
	for i := 0; i < k; i++ {
		out = append(out, total*uint64(i)/uint64(k))
	}
	return out
}

// TestLivePointsMatchOneWalk: for every SPEC kernel in both builds, each
// live-point of the four-window plan at scale 1 equals the one walk's in
// every state field and in its touch ring, touch for touch. So do
// live-points closer together than one ring span, and those of a program
// shorter than one checkpoint stride.
func TestLivePointsMatchOneWalk(t *testing.T) {
	var walked, progressive uint64
	var wrapped int
	for _, spec := range workloads.SPEC() {
		for _, tagged := range []bool{false, true} {
			prog, err := spec.Build(tagged, 1)
			if err != nil {
				t.Fatal(err)
			}
			total := cpu.NewGolden(prog, tagged, 0).Run(1 << 40).Insts
			name := fmt.Sprintf("%s tagged=%v", spec.Name, tagged)
			w, p, n := checkLivePoints(t, name, prog, tagged, gridStarts(total, 4))
			walked, progressive, wrapped = walked+w, progressive+p, wrapped+n
		}
	}
	// 30 programs with 3 windows past instruction 0 each.
	if wrapped < 80 {
		t.Errorf("only %d live-points had a wrapped ring", wrapped)
	}
	if walked >= progressive {
		t.Errorf("live-point walks executed %d instructions, the one walk %d", walked, progressive)
	}
	t.Logf("%d live-points with a wrapped ring; walks to them: %d instructions, one walk: %d",
		wrapped, walked, progressive)

	prog, err := workloads.ByName("520.omnetpp_r").Build(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	mid := cpu.NewGolden(prog, true, 0).Run(1<<40).Insts / 2
	checkLivePoints(t, "close starts", prog, true, []uint64{mid, mid + 1, mid + 3000, mid + 40_000})

	short, err := workloads.ByName("505.mcf_r").Build(false, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	total := cpu.NewGolden(short, false, 0).Run(1 << 40).Insts
	if total >= firstStride {
		t.Fatalf("%d instructions: not shorter than one stride", total)
	}
	checkLivePoints(t, "short", short, false, gridStarts(total, 4))
}

// TestSampledCellWalksOnce: a grid cell's golden walks, the full walk and
// the walks to its live-points together, execute fewer than 1.5 times the
// program's instructions; walking once to the total and once more to the
// last window start took 1.75 times.
func TestSampledCellWalksOnce(t *testing.T) {
	var walked uint64
	functionalWork = func(n uint64) { walked += n }
	defer func() { functionalWork = nil }()
	opt := DefaultOptions()
	opt.Scale = 2
	opt.SampleWindows = 4
	opt.SampleWindowInsts = 20_000
	r, err := RunBenchmark(workloads.ByName("500.perlbench_r"), core.Unsafe, opt)
	if err != nil {
		t.Fatal(err)
	}
	if walked*2 >= r.Committed*3 {
		t.Errorf("golden walks executed %d instructions, %.2f times the program's %d",
			walked, float64(walked)/float64(r.Committed), r.Committed)
	}
	t.Logf("golden walks: %d instructions, %.2f times the program's %d",
		walked, float64(walked)/float64(r.Committed), r.Committed)
}
