package serve

import (
	"io"
	"testing"
)

var benchBody []byte

// BenchmarkSubmitCached meters the service's cached path without HTTP: a
// fully stored five-cell job (fiveDoc), from Submit to the body handleSweep
// answers with (resultBody).
func BenchmarkSubmitCached(b *testing.B) {
	s, err := New(Config{StoreDir: b.TempDir(), Workers: 1, Log: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	submit := func() *job {
		j, herr := s.Submit([]byte(fiveDoc), "bench")
		if herr != nil {
			b.Fatal(herr)
		}
		<-j.done
		return j
	}
	submit() // cold: stores the five cells
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := submit()
		if cached, _ := j.cacheSummary(); cached != len(j.cells) {
			b.Fatalf("%d of %d cells cached", cached, len(j.cells))
		}
		if benchBody, err = j.resultBody(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
}
