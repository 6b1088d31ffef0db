package search

import (
	"testing"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/op"
)

// benchOp is large enough that the coarse lattice dominates runtime but
// small enough for -benchtime=1x smoke runs in CI.
var benchOp = op.MatMul{Name: "bench", M: 256, K: 192, L: 256}

const benchBuffer = 32 << 10

func BenchmarkCoarseReference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ReferenceCoarse(benchOp, benchBuffer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustiveReference(b *testing.B) {
	mm := op.MatMul{Name: "bench-small", M: 24, K: 20, L: 24}
	for i := 0; i < b.N; i++ {
		if _, err := ReferenceExhaustive(mm, 512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostEvaluate is the scalar cost model itself; 0 allocs/op.
func BenchmarkCostEvaluate(b *testing.B) {
	mm := op.MatMul{Name: "raw", M: 48, K: 32, L: 40}
	df := dataflow.Must(mm, dataflow.AllOrders()[0], dataflow.MustTiling(mm, 8, 4, 5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cost.Evaluate(mm, df); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableBuild prices the one-time per-shape cost the candidate
// table amortizes away.
func BenchmarkTableBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewCandTable(benchOp, GridCoarse, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableBest is one sweep point served from a prebuilt table — an
// O(log n) query. 0 allocs/op.
func BenchmarkTableBest(b *testing.B) {
	tab, err := NewCandTable(benchOp, GridCoarse, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.Best(benchBuffer); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepBuffers is the five-point buffer sweep BenchmarkTableSweep walks —
// the Fig. 9 access pattern where the same candidate lattice is revisited
// at every buffer size.
var sweepBuffers = []int64{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}

// BenchmarkTableSweep is the Fig. 9 access pattern over the table API:
// build once, query every buffer point.
func BenchmarkTableSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := NewCandTable(benchOp, GridCoarse, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, bs := range sweepBuffers {
			if _, err := tab.Best(bs); err != nil {
				b.Fatal(err)
			}
		}
	}
}
