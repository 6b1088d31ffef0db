package experiments

import (
	"context"
	"fmt"

	"fusecu/internal/core"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// Fig9Analytic computes the validation sweep through the closed-form
// analytic optimizer alone: one compiled engine per operator, and per
// buffer point only the integer boundary candidates of each regime — no
// lattice scan, no randomness. The engine is exact, so its MA values sit on
// the principle line at every point, where DAT (Fig9) lands above it at
// some small buffers. The per-point SearchEvals are the analytic engine's
// own evaluation counts (hundreds, versus the GA's thousands), and
// SearchCacheHits is always zero.
func Fig9Analytic(ops []op.MatMul, buffers []int64) ([]Fig9Result, error) {
	return Fig9AnalyticCtx(context.Background(), ops, buffers)
}

// Fig9AnalyticCtx is Fig9Analytic with cooperative cancellation: when ctx
// is canceled the in-flight point stops at the engine's next poll and the
// sweep returns the error instead of a partial result set.
func Fig9AnalyticCtx(ctx context.Context, ops []op.MatMul, buffers []int64) ([]Fig9Result, error) {
	var results []Fig9Result
	for _, mm := range ops {
		r := Fig9Result{Op: mm}
		eng, err := search.NewAnalytic(mm)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig9 analytic %v: %w", mm, err)
		}
		for _, bs := range buffers {
			pr, err := core.Optimize(mm, bs)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig9 %v BS=%d: %w", mm, bs, err)
			}
			sr, err := eng.OptimizeCtx(ctx, bs)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig9 analytic %v BS=%d: %w", mm, bs, err)
			}
			r.Points = append(r.Points, Fig9Point{
				BufferElems: bs,
				PrincipleMA: pr.Access.Total,
				SearchMA:    sr.Access.Total,
				Ideal:       mm.IdealMA(),
				SearchEvals: sr.Evaluations,
			})
		}
		results = append(results, r)
	}
	return results, nil
}
