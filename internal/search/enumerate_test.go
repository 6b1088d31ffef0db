package search

import (
	"context"
	"errors"
	"testing"

	"fusecu/internal/errs"
	"fusecu/internal/op"
)

// TestExtentBeyondInt32IsInvalidOperator pins the MaxInt32 rule: every
// lattice entry point — the candidate table, the walk on both lattices and
// DAT's lattice stage — rejects an extent above MaxInt32 with
// errs.ErrInvalidOperator at once, at every buffer, because
// cost.NewBatchEval guards the int32 tile columns of its blocks. The scalar
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
		{"walk-full", func(bs int64) error { _, err := WalkCtx(ctx, mm, bs, GridFull); return err }},
		{"walk-coarse", func(bs int64) error { _, err := WalkCtx(ctx, mm, bs, GridCoarse); return err }},
		{"optimize", func(bs int64) error { _, err := Optimize(mm, bs, GeneticOptions{}); return err }},
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
