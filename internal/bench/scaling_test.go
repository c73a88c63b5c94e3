package bench

import (
	"testing"

	"repro/internal/model"
)

// TestThousandPEWorld is the scaling acceptance check: a 1024-PE ring
// world constructs, runs the scaling workload, resets, and recycles
// through the world pool.
func TestThousandPEWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-PE world in -short mode")
	}
	DrainWorldPool()
	h0, m0 := WorldPoolStats()
	ScaleWorkload(model.Default(), 1024, 1024)
	ScaleWorkload(model.Default(), 1024, 1024)
	h1, m1 := WorldPoolStats()
	if h1-h0 < 1 {
		t.Errorf("second 1024-PE run missed the pool (hits %d, misses %d): PE budget rejects big worlds", h1-h0, m1-m0)
	}
	DrainWorldPool()
}

// BenchmarkScaleWorld256 runs the scaling workload on a pooled 256-PE
// ring world per op and reports engine throughput as events/s. The
// benchgate floor on that metric is the scaling guard: it fails CI if
// per-event dispatch cost at 256 PEs regresses by an order of
// magnitude (a super-linear scheduler would).
func BenchmarkScaleWorld256(b *testing.B) {
	DrainWorldPool()
	par := model.Default()
	ScaleWorkload(par, 256, 4096) // build + pool the world outside the timer
	e0 := VirtualEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScaleWorkload(par, 256, 4096)
	}
	b.StopTimer()
	b.ReportMetric(float64(VirtualEvents()-e0)/b.Elapsed().Seconds(), "events/s")
	DrainWorldPool()
}
