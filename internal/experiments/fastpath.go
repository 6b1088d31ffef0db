package experiments

import (
	"context"
	"fmt"

	"fusecu/internal/core"
	"fusecu/internal/model"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// This file holds the candidate-table fast paths of the evaluation sweeps.
// The plain Fig9/Fig9Parallel harnesses rescan each operator's coarse
// lattice at every buffer point (O(lattice) visits per point); the fast
// paths build one footprint-indexed
// CandTable per operator shape and serve every sweep point with an O(log n)
// query plus the unchanged GA polish. Results are bit-identical —
// same MA values, same total candidate-visit counts — which the tests pin
// against the plain harness.

// Fig9Sweep computes the same validation sweep as Fig9 through the
// candidate-table engine: per operator, one coarse table build replaces the
// per-point lattice scans. Deterministic and point-for-point identical to
// Fig9 in every MA value and in SearchEvals + SearchCacheHits; the lattice
// visits move from SearchEvals into SearchCacheHits because the table
// serves them from its prebuilt steps, leaving only the GA's evaluations in
// SearchEvals.
func Fig9Sweep(ops []op.MatMul, buffers []int64, seed int64) ([]Fig9Result, error) {
	return Fig9SweepCtx(context.Background(), ops, buffers, seed)
}

// Fig9SweepCtx is Fig9Sweep with cooperative cancellation threaded through
// the per-point table queries: when ctx is canceled the in-flight point
// stops at the engine's next poll and the sweep returns the error.
func Fig9SweepCtx(ctx context.Context, ops []op.MatMul, buffers []int64, seed int64) ([]Fig9Result, error) {
	var results []Fig9Result
	for _, mm := range ops {
		r := Fig9Result{Op: mm}
		var tab *search.CandTable
		if search.CoarseLattice(mm) <= search.CoarseLatticeLimit {
			var err error
			tab, err = search.NewCandTable(mm, search.GridCoarse, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig9 table %v: %w", mm, err)
			}
		}
		for _, bs := range buffers {
			pr, err := core.Optimize(mm, bs)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig9 %v BS=%d: %w", mm, bs, err)
			}
			sr, err := search.OptimizeTableCtx(ctx, mm, bs, search.GeneticOptions{Seed: seed}, tab, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig9 search %v BS=%d: %w", mm, bs, err)
			}
			r.Points = append(r.Points, Fig9Point{
				BufferElems:     bs,
				PrincipleMA:     pr.Access.Total,
				SearchMA:        sr.Access.Total,
				Ideal:           mm.IdealMA(),
				SearchEvals:     sr.Evaluations,
				SearchCacheHits: sr.CacheHits,
			})
		}
		results = append(results, r)
	}
	return results, nil
}

// Fig11SearchRow is one (sequence length, operator shape, buffer) cell of
// the table-backed LLaMA2 sweep: the principle optimum against the
// DAT-style coarse-lattice search served from a candidate table.
type Fig11SearchRow struct {
	SeqLen int
	Op     op.MatMul
	// Count is how many instances of this shape the layer runs (e.g. the
	// four projections share one shape; attention runs batch × heads).
	Count       int64
	BufferElems int64
	// PrincipleMA is core.Optimize's analytical optimum; SearchMA the best
	// coarse-lattice candidate from the table.
	PrincipleMA, SearchMA int64
	// Visits is the candidate count a pruned scan would have walked for
	// this point, served by the table in O(log n).
	Visits int64
}

// Fig11SearchStats summarizes table reuse across one sweep.
type Fig11SearchStats struct {
	// ShapeRefs counts (sequence length, shape) references; TableBuilds the
	// distinct shapes actually built — the gap is the sharing the registry
	// exploits (LLaMA2's four projections collapse to one table per seq).
	ShapeRefs, TableBuilds int64
	// BuildEvals aggregates the builds' cost-model invocations: one per
	// candidate of each built table.
	BuildEvals int64
}

// fig11Shape keys tables by operator shape; names and multiplicity are
// irrelevant to cost.
type fig11Shape struct{ m, k, l int }

// Fig11Search runs the table-backed search validation over the LLaMA2
// sequence-length sweep: for every distinct operator shape of each layer it
// builds one coarse candidate table (shared across the shape's instances
// and across chains) and compares the principle optimum against the table's
// coarse-lattice best at each buffer size. Rows are emitted in workload
// order and the whole sweep is deterministic.
func Fig11Search(seqs []int, buffers []int64) ([]Fig11SearchRow, Fig11SearchStats, error) {
	var rows []Fig11SearchRow
	var stats Fig11SearchStats
	tables := map[fig11Shape]*search.CandTable{}
	for _, s := range seqs {
		w, err := model.LLaMA2WithSeq(s).Build()
		if err != nil {
			return nil, stats, fmt.Errorf("experiments: fig11 search seq=%d: %w", s, err)
		}
		// Aggregate the layer's operators by shape, preserving first-seen
		// order for deterministic row emission.
		var order []fig11Shape
		counts := map[fig11Shape]int64{}
		names := map[fig11Shape]string{}
		for _, wc := range w.Chains {
			for _, mm := range wc.Chain.Ops {
				key := fig11Shape{mm.M, mm.K, mm.L}
				if counts[key] == 0 {
					order = append(order, key)
					names[key] = mm.Name
				}
				counts[key] += wc.Count
			}
		}
		for _, key := range order {
			mm := op.MatMul{Name: names[key], M: key.m, K: key.k, L: key.l}
			stats.ShapeRefs++
			tab, ok := tables[key]
			if !ok {
				tab, err = search.NewCandTable(mm, search.GridCoarse, nil)
				if err != nil {
					return nil, stats, fmt.Errorf("experiments: fig11 table %v: %w", mm, err)
				}
				tables[key] = tab
				stats.TableBuilds++
				stats.BuildEvals += tab.Candidates()
			}
			for _, bs := range buffers {
				pr, err := core.Optimize(mm, bs)
				if err != nil {
					return nil, stats, fmt.Errorf("experiments: fig11 principle %v BS=%d: %w", mm, bs, err)
				}
				sr, err := tab.Best(bs)
				if err != nil {
					return nil, stats, fmt.Errorf("experiments: fig11 search %v BS=%d: %w", mm, bs, err)
				}
				rows = append(rows, Fig11SearchRow{
					SeqLen:      s,
					Op:          mm,
					Count:       counts[key],
					BufferElems: bs,
					PrincipleMA: pr.Access.Total,
					SearchMA:    sr.Access.Total,
					Visits:      sr.CacheHits,
				})
			}
		}
	}
	return rows, stats, nil
}
