package search_test

import (
	"runtime"
	"testing"

	"fusecu/internal/experiments"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// raceEnabled is set by race_test.go under -race, whose instrumentation
// changes allocation counts.
var raceEnabled bool

// TestOptimizeAnalyticAllocBytesPerCall pins the per-request heap cost of
// the analytic engine — the /v1/search auto engine — at a few KiB beyond
// one scan block, so serving traffic does not churn the GC with large
// short-lived blocks.
func TestOptimizeAnalyticAllocBytesPerCall(t *testing.T) {
	if invariant.Enabled || raceEnabled {
		t.Skip("invariant checks or the race detector change allocation")
	}
	mm := op.MatMul{Name: "llama2-ffn", M: 2048, K: 4096, L: 11008}
	buffers := experiments.Fig9Buffers()
	sweep := func() {
		for _, bs := range buffers {
			if _, err := search.OptimizeAnalytic(mm, bs); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep()
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*len(buffers))
	if perCall > 32<<10 {
		t.Errorf("OptimizeAnalytic allocates %d bytes per call, want ≤ 32 KiB", perCall)
	}
	t.Logf("OptimizeAnalytic: %d bytes per call", perCall)
}
