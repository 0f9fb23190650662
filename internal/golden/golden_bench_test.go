package golden

import (
	"testing"

	"specasan/internal/workloads"
)

// benchProg builds the perf-recipe workload (508.namd_r at scale 10, the
// same program cmd/specasan-bench -perf measures), so `go test -bench` here
// and the BENCH_sim.json golden MIPS number exercise the same hot loop.
func benchProg(tb testing.TB) *workloads.Spec {
	tb.Helper()
	spec := workloads.ByName("508.namd_r")
	if spec == nil {
		tb.Fatal("workload 508.namd_r missing")
	}
	return spec
}

// BenchmarkGoldenRun measures the functional interpreter's full-walk
// throughput with a cold basic-block cache per walk — exactly how sampled
// simulation uses it (one fresh interpreter per cell). The reported
// sim-insts/s metric is the golden MIPS headline (x 1e6).
func BenchmarkGoldenRun(b *testing.B) {
	prog, err := benchProg(b).Build(false, 10)
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := New(prog).Run(1 << 62)
		if res.Reason != StopExit {
			b.Fatalf("walk ended %v", res.Reason)
		}
		insts += res.Insts
	}
	b.StopTimer()
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/sim-inst")
}

// BenchmarkGoldenRunTouched is the same walk with a touch ring attached —
// the fast-forward configuration. The delta against BenchmarkGoldenRun is
// the price of cache-warming capture (one predictable branch plus a ring
// store per memory operation).
func BenchmarkGoldenRunTouched(b *testing.B) {
	prog, err := benchProg(b).Build(false, 10)
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip := New(prog)
		ip.Touch = NewTouchRing(1 << 15)
		res := ip.Run(1 << 62)
		if res.Reason != StopExit {
			b.Fatalf("walk ended %v", res.Reason)
		}
		insts += res.Insts
	}
	b.StopTimer()
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}
