package search

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"fusecu/internal/errs"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// allocBytes returns the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParallelWorkersClamped pins the worker clamp: a client-sized worker
// count far beyond GOMAXPROCS must return the reference answer without
// allocating a scan block per requested worker (2^20 blocks would be tens
// of GiB).
func TestParallelWorkersClamped(t *testing.T) {
	mm := op.MatMul{Name: "bench-small", M: 24, K: 20, L: 24}
	const bs, workers = 512, 1 << 20
	cases := []struct {
		name string
		ref  func(op.MatMul, int64) (Result, error)
		run  func() (Result, error)
	}{
		{"coarse", ReferenceCoarse, func() (Result, error) {
			return ParallelCoarseCtx(context.Background(), mm, bs, workers)
		}},
		{"exhaustive", ReferenceExhaustive, func() (Result, error) {
			return ParallelExhaustiveCtx(context.Background(), mm, bs, workers)
		}},
		{"optimize", func(mm op.MatMul, bs int64) (Result, error) {
			return Optimize(mm, bs, GeneticOptions{})
		}, func() (Result, error) {
			return OptimizeParallelCtx(context.Background(), mm, bs, GeneticOptions{}, workers)
		}},
	}
	for _, c := range cases {
		ref, err := c.ref(mm, bs)
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		n := allocBytes(func() { got, err = c.run() })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkEquivalent(t, c.name, ref, got)
		// Per-candidate assertion formatting allocates under fusecuchecks.
		if !invariant.Enabled && n > 16<<20 {
			t.Errorf("%s with %d workers allocated %d bytes, want ≤ 16 MiB", c.name, workers, n)
		}
	}
}

// TestExtentBeyondInt32IsInvalidOperator pins the typed error for extents
// the batch kernel's int32 tile columns cannot hold: every Block-based
// entry point rejects them with errs.ErrInvalidOperator at once, at every
// buffer, instead of truncating a tile into a contained panic. The scalar
// reference engine, which has no such limit, still answers.
func TestExtentBeyondInt32IsInvalidOperator(t *testing.T) {
	mm := op.MatMul{Name: "huge", M: 3_000_000_000, K: 2, L: 2}
	ctx := context.Background()
	engines := []struct {
		name string
		run  func(bs int64) error
	}{
		{"cand-table-coarse", func(int64) error { _, err := NewCandTable(mm, GridCoarse, nil); return err }},
		{"analytic", func(bs int64) error { _, err := OptimizeAnalytic(mm, bs); return err }},
		{"exhaustive", func(bs int64) error { _, err := Exhaustive(mm, bs); return err }},
		{"exhaustive-coarse", func(bs int64) error { _, err := ExhaustiveCoarse(mm, bs); return err }},
		{"parallel-exhaustive", func(bs int64) error { _, err := ParallelExhaustiveCtx(ctx, mm, bs, 2); return err }},
		{"parallel-coarse", func(bs int64) error { _, err := ParallelCoarseCtx(ctx, mm, bs, 2); return err }},
		{"optimize", func(bs int64) error { _, err := Optimize(mm, bs, GeneticOptions{}); return err }},
		{"optimize-parallel", func(bs int64) error {
			_, err := OptimizeParallelCtx(ctx, mm, bs, GeneticOptions{}, 2)
			return err
		}},
	}
	for _, bs := range []int64{1 << 10, 1 << 20, 1 << 40} {
		for _, e := range engines {
			if err := e.run(bs); !errors.Is(err, errs.ErrInvalidOperator) {
				t.Errorf("%s BS=%d: err = %v, want ErrInvalidOperator", e.name, bs, err)
			}
		}
	}
	if _, err := ReferenceCoarse(mm, 1<<40); err != nil {
		t.Errorf("scalar reference failed on %v: %v", mm, err)
	}
}
