package serve

import (
	"io"
	"runtime"
	"testing"
)

// TestCachedSubmitAllocationPin bounds the host memory of the service's
// cached path: one fully stored five-cell job (fiveDoc), from Submit to the
// body handleSweep answers with. A cache hit reads each entry once, checks
// its header by comparing bytes, skips the JSON scan of a payload the store
// has already accepted, and splices the payloads into the body as they are;
// decoding the entry header, scanning a payload again or re-encoding it
// through json.Encoder shows here as more allocations and bytes. The
// limits sit about a quarter above the steady state, which reads 233
// allocations and 37.0 KB (decoding the header and re-encoding the body
// cost 316 and 60.2 KB). A -race build's sync.Pool drops some of the
// encoder buffers handed back to it, on purpose, so that build gets its
// own limits, about a third above the worst of 10 race runs (254
// allocations, 42.5 KB).
func TestCachedSubmitAllocationPin(t *testing.T) {
	allocLimit, byteLimit := 290.0, uint64(46_000)
	if raceEnabled {
		allocLimit, byteLimit = 340, 56_000
	}
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 1, Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	submit := func() {
		j, herr := s.Submit([]byte(fiveDoc), "pin")
		if herr != nil {
			t.Fatal(herr)
		}
		<-j.done
		if cached, _ := j.cacheSummary(); cached != len(j.cells) {
			t.Fatalf("%d of %d cells cached", cached, len(j.cells))
		}
		if _, err := j.resultBody(); err != nil {
			t.Fatal(err)
		}
	}
	j, herr := s.Submit([]byte(fiveDoc), "cold") // stores the five cells
	if herr != nil {
		t.Fatal(herr)
	}
	<-j.done

	allocs := testing.AllocsPerRun(50, submit)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		submit()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocs > allocLimit {
		t.Errorf("cached five-cell Submit and its body allocate %.0f times, limit %.0f", allocs, allocLimit)
	}
	if bytes > byteLimit {
		t.Errorf("cached five-cell Submit and its body allocate %d B, limit %d", bytes, byteLimit)
	}
	t.Logf("cached five-cell Submit and body: %.0f allocations, %d B", allocs, bytes)
}
