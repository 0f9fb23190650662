package cache

import (
	"fmt"
	"testing"

	"specasan/internal/golden"
	"specasan/internal/workloads"
)

// warmEvent is one recorded touch.
type warmEvent struct {
	addr          uint64
	write, ifetch bool
}

// touchList is a recorded touch sequence in the form Warm reads.
type touchList []warmEvent

func (tl touchList) each(fn func(addr uint64, write, ifetch bool)) {
	for _, t := range tl {
		fn(t.addr, t.write, t.ifetch)
	}
}

// warmDiff lists how two hierarchies' warm state differs: every way of
// core 0's L1I and L1D and of the L2, all fields, and every directory
// entry.
func warmDiff(a, b *Hierarchy) []string {
	var out []string
	for _, lv := range []struct{ a, b *Level }{{a.L1I[0], b.L1I[0]}, {a.L1D[0], b.L1D[0]}, {a.L2, b.L2}} {
		ways := make([]line, lv.a.ways)
		for s := 0; s <= int(lv.a.setMask); s++ {
			sa := lv.a.set(uint64(s)<<lv.a.lineShift, false)
			sb := lv.b.set(uint64(s)<<lv.b.lineShift, false)
			for w := range ways {
				la, lb := line{}, line{}
				if sa != nil {
					la = sa[w]
				}
				if sb != nil {
					lb = sb[w]
				}
				if la != lb && len(out) < 8 {
					out = append(out, fmt.Sprintf("%s set %d way %d: %+v vs %+v", lv.a.name, s, w, la, lb))
				}
			}
		}
	}
	dir := func(h *Hierarchy) map[uint64]dirEntry {
		m := map[uint64]dirEntry{}
		for _, s := range h.dir.slots {
			if s.state == slotLive {
				m[s.key] = s.val
			}
		}
		return m
	}
	da, db := dir(a), dir(b)
	if len(da) != len(db) {
		out = append(out, fmt.Sprintf("directory holds %d vs %d entries", len(da), len(db)))
	}
	for k, v := range da {
		if w, ok := db[k]; (!ok || v != w) && len(out) < 16 {
			out = append(out, fmt.Sprintf("directory %#x: %+v vs %+v", k, v, w))
		}
	}
	return out
}

// checkWarm replays each into one fresh hierarchy touch by touch (the
// meaning of a replay) and into another through Warm, and fails on any
// difference.
func checkWarm(t *testing.T, name string, each func(fn func(addr uint64, write, ifetch bool))) {
	t.Helper()
	ref, _ := newHier(false, false)
	var seq uint64
	each(func(addr uint64, write, ifetch bool) {
		ref.warmTouch(0, addr, write, ifetch, seq)
		seq++
	})
	ref.finishWarm()
	got, _ := newHier(false, false)
	got.Warm(0, each)
	for _, d := range warmDiff(ref, got) {
		t.Errorf("%s: %s", name, d)
	}
}

// TestWarmMatchesPerTouchReplay: on every wrapped ring of the Figure 6
// grid's programs at scale 2 (15 SPEC kernels in both builds, rings at
// the three window starts past instruction 0), Warm leaves every way of
// L1I, L1D and L2, and every directory entry, as replaying the ring touch
// by touch does. So it does on a ring that overflows an L2 set and on one
// that loads and stores fetched lines.
func TestWarmMatchesPerTouchReplay(t *testing.T) {
	wrapped := 0
	for _, spec := range workloads.SPEC() {
		for _, tagged := range []bool{false, true} {
			prog, err := spec.Build(tagged, 2)
			if err != nil {
				t.Fatal(err)
			}
			twin := func() *golden.Interp {
				ip := golden.New(prog)
				ip.MTEOn = tagged
				ip.TagSeed = 0x5eca5a // cpu.TagSeedBase: cpu imports this package
				return ip
			}
			total := twin().Run(1 << 40).Insts
			ip := twin()
			ip.Touch = golden.NewTouchRing(1 << 15)
			for i := uint64(1); i < 4; i++ {
				ip.Run(total*i/4 - ip.Insts())
				if ip.Touch.Added() <= 1<<15 {
					continue
				}
				wrapped++
				checkWarm(t, fmt.Sprintf("%s tagged=%v at %d/4", spec.Name, tagged, i), ip.Touch.Each)
			}
		}
	}
	if wrapped != 90 {
		t.Errorf("%d wrapped rings, want 90", wrapped)
	}

	// 20 lines 64 KiB apart share an L2 set (and an L1D and L1I set), the
	// first half fetched, all loaded, some stored, revisited out of order.
	var spill touchList
	for round := uint64(0); round < 3; round++ {
		for i := uint64(0); i < 20; i++ {
			a := 0x100000 + i*64<<10 + round*8
			spill = append(spill, warmEvent{a, i%3 == round, i < 10 && round == 0})
		}
	}
	checkWarm(t, "L2 set overflow", spill.each)

	// Code lines that are also loaded and stored, in both orders.
	var mixed touchList
	for i := uint64(0); i < 40; i++ {
		mixed = append(mixed, warmEvent{0x1000 + i%7*64, i%5 == 1, i%2 == 0})
	}
	checkWarm(t, "data touches of fetched lines", mixed.each)
}
