package recycle

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// onOneP runs f with the collector off and on one P, so a Free followed by
// a Make meets the same pool cache and no collection empties it between.
func onOneP(f func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// reused reports whether a and b start at the same element.
func reused[T any](a, b []T) bool { return &a[0] == &b[0] }

func TestSlicesMakeIsZeroedOfLengthAndCapacityN(t *testing.T) {
	var s Slices[uint64]
	for _, n := range []int{0, 1, 7, 4096} {
		b := s.Make(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("Make(%d): len %d cap %d", n, len(b), cap(b))
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("Make(%d)[%d] = %d, want 0", n, i, v)
			}
		}
	}
}

// TestSlicesFreeZeroesAndKeeps pins Free's two halves: it zeroes the whole
// array behind the slice, past its length too, and a later Make of the
// array's length may hand that array back, zeroed, while a Make of another
// length never does. A -race build's pool drops a quarter of what it is
// handed, so reuse is only required within a few tries.
func TestSlicesFreeZeroesAndKeeps(t *testing.T) {
	var s Slices[int]
	onOneP(func() {
		b := s.Make(8)
		for i := range b {
			b[i] = i + 1
		}
		s.Free(b[:3]) // capacity 8: the array is kept by its full length
		for i, v := range b {
			if v != 0 {
				t.Fatalf("after Free, element %d = %d, want 0", i, v)
			}
		}
		if o := s.Make(4); len(o) != 4 || cap(o) != 4 {
			t.Fatalf("Make(4) after freeing an 8-array: len %d cap %d", len(o), cap(o))
		}
		for try := 0; ; try++ {
			got := s.Make(8)
			if reused(got, b) {
				for i, v := range got {
					if v != 0 {
						t.Fatalf("reused array element %d = %d, want 0", i, v)
					}
				}
				return
			}
			if try == 20 {
				t.Fatal("Make(8) never returned the freed 8-array")
			}
			b = got
			b[7] = 9
			s.Free(b)
		}
	})
	s.Free(nil) // ignored
	s.Free([]int{}[:0])
}

func TestObjectsNewAndFree(t *testing.T) {
	type obj struct {
		a [16]uint32
		p *int
	}
	var o Objects[obj]
	if p := o.New(); *p != (obj{}) {
		t.Fatalf("New returned %+v, want the zero value", *p)
	}
	onOneP(func() {
		x := 5
		p := o.New()
		for try := 0; ; try++ {
			p.a[3], p.p = 7, &x
			o.Free(p)
			if *p != (obj{}) {
				t.Fatalf("after Free, *p = %+v, want the zero value", *p)
			}
			q := o.New()
			if *q != (obj{}) {
				t.Fatalf("New returned %+v, want the zero value", *q)
			}
			if q == p {
				return
			}
			if try == 20 {
				t.Fatal("New never returned the freed object")
			}
			p = q
		}
	})
}

// TestConcurrentMakeFree has several goroutines take, fill, check and hand
// back arrays of two lengths at once. Each array a goroutine holds must be
// zeroed when taken and its own until freed; under -race the pools'
// hand-offs must be clean.
func TestConcurrentMakeFree(t *testing.T) {
	var s Slices[int]
	var o Objects[[4]int]
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := s.Make(16 << (i % 2))
				p := o.New()
				for j := range b {
					if b[j] != 0 {
						t.Errorf("goroutine %d: taken array not zeroed", g)
						return
					}
					b[j] = g
				}
				*p = [4]int{g, g, g, g}
				runtime.Gosched()
				for j := range b {
					if b[j] != g {
						t.Errorf("goroutine %d: array written by goroutine %d while held", g, b[j])
						return
					}
				}
				if *p != [4]int{g, g, g, g} {
					t.Errorf("goroutine %d: object changed while held: %v", g, *p)
					return
				}
				s.Free(b)
				o.Free(p)
			}
		}()
	}
	wg.Wait()
}
