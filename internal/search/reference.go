package search

import (
	"fmt"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/op"
)

// This file freezes the original single-threaded engines exactly as first
// written: no footprint pruning, no batch kernel, no workers. They are
// the ground truth the canonical walk (WalkCtx, OptimizeAnalytic), the
// candidate tables and DAT's counted lattice stage (Optimize) are
// property-tested bit-identical against, and the baseline the
// BENCH_search.json speedups are measured from. Do not optimize them.

// ReferenceExhaustive enumerates all 6 loop orders × all integer tilings
// with a per-candidate feasibility filter and no pruning — the unoptimized
// reference for the full-lattice walk.
func ReferenceExhaustive(mm op.MatMul, bufferSize int64) (Result, error) {
	if err := mm.Validate(); err != nil {
		return Result{}, err
	}
	var (
		best  Result
		found bool
	)
	for _, o := range dataflow.AllOrders() {
		for tm := 1; tm <= mm.M; tm++ {
			for tk := 1; tk <= mm.K; tk++ {
				for tl := 1; tl <= mm.L; tl++ {
					df := dataflow.Must(mm, o, dataflow.MustTiling(mm, tm, tk, tl))
					if df.Tiling.Footprint() > bufferSize {
						continue
					}
					a := cost.MustEvaluate(mm, df)
					best.Evaluations++
					if !found || a.Total < best.Access.Total {
						found = true
						best.Dataflow, best.Access = df, a
					}
				}
			}
		}
	}
	if !found {
		return Result{}, fmt.Errorf("search: no feasible dataflow for %v in buffer %d: %w", mm, bufferSize, errs.ErrInfeasible)
	}
	best.Method = "exhaustive"
	return best, nil
}

// ReferenceCoarse enumerates all loop orders over the TileGrid lattice with
// a per-candidate feasibility filter and no pruning — the unoptimized
// reference for the coarse walk and for Optimize's lattice stage.
func ReferenceCoarse(mm op.MatMul, bufferSize int64) (Result, error) {
	if err := mm.Validate(); err != nil {
		return Result{}, err
	}
	gm, gk, gl := TileGrid(mm.M), TileGrid(mm.K), TileGrid(mm.L)
	var (
		best  Result
		found bool
	)
	for _, o := range dataflow.AllOrders() {
		for _, tm := range gm {
			for _, tk := range gk {
				for _, tl := range gl {
					df := dataflow.Must(mm, o, dataflow.MustTiling(mm, tm, tk, tl))
					if df.Tiling.Footprint() > bufferSize {
						continue
					}
					a := cost.MustEvaluate(mm, df)
					best.Evaluations++
					if !found || a.Total < best.Access.Total {
						found = true
						best.Dataflow, best.Access = df, a
					}
				}
			}
		}
	}
	if !found {
		return Result{}, fmt.Errorf("search: no feasible dataflow for %v in buffer %d: %w", mm, bufferSize, errs.ErrInfeasible)
	}
	best.Method = "exhaustive-coarse"
	return best, nil
}
