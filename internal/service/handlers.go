package service

import (
	"context"
	"errors"

	"fusecu/api"
	"fusecu/internal/arch"
	"fusecu/internal/core"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/model"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// The wire schemas live in the public api package — the single source of
// truth the client package aliases too. The local names below keep the
// handlers readable and pin that this server speaks exactly those structs.
type (
	opSpec           = api.OpSpec
	dataflowJSON     = api.Dataflow
	optimizeRequest  = api.OptimizeRequest
	optimizeResponse = api.OptimizeResponse
	planRequest      = api.PlanRequest
	planGroup        = api.PlanGroup
	planDecision     = api.PlanDecision
	planResponse     = api.PlanResponse
	searchRequest    = api.SearchRequest
	searchResponse   = api.SearchResponse
	evaluateRequest  = api.EvaluateRequest
	platformResult   = api.PlatformResult
	evaluateResponse = api.EvaluateResponse
)

func matmulOf(o opSpec) op.MatMul {
	return op.MatMul{Name: o.Name, M: o.M, K: o.K, L: o.L}
}

func dataflowOf(df dataflow.Dataflow, nra dataflow.NRAClass, total int64, per [3]int64) dataflowJSON {
	return dataflowJSON{
		Order:        df.Order.String(),
		TM:           df.Tiling.TM,
		TK:           df.Tiling.TK,
		TL:           df.Tiling.TL,
		NRA:          nra.String(),
		MemoryAccess: total,
		PerTensor:    per,
	}
}

// --- /v1/optimize -----------------------------------------------------------

func (s *Server) handleOptimize(ctx context.Context, req *optimizeRequest) (any, error) {
	res, err := core.Optimize(matmulOf(req.Op), req.Buffer)
	if err != nil {
		return nil, err
	}
	return optimizeResponse{
		Regime:     res.Regime.String(),
		Principle:  res.Principle,
		Note:       res.Note,
		Dataflow:   dataflowOf(res.Dataflow, res.Access.NRA, res.Access.Total, res.Access.PerTensor),
		Considered: len(res.Considered),
	}, nil
}

// --- /v1/plan ---------------------------------------------------------------

func (s *Server) handlePlan(ctx context.Context, req *planRequest) (any, error) {
	ops := make([]op.MatMul, len(req.Ops))
	for i, o := range req.Ops {
		ops[i] = matmulOf(o)
	}
	chain, err := op.NewChain(req.Name, ops...)
	if err != nil {
		return nil, err
	}
	plan, err := core.PlanChain(chain, req.Buffer)
	if err != nil {
		return nil, err
	}
	resp := planResponse{
		Chain:     chain.Name,
		TotalMA:   plan.TotalMA,
		UnfusedMA: plan.UnfusedMA,
		Saving:    plan.Saving(),
	}
	for _, g := range plan.Groups {
		pg := planGroup{Start: g.Start, Len: g.Len, Fused: g.Fusedp(), MemoryAccess: g.MA}
		if g.Fusedp() {
			pg.Pattern = g.Fused.Dataflow.Pattern.String()
		}
		resp.Groups = append(resp.Groups, pg)
	}
	for i, d := range plan.Decisions {
		resp.Decisions = append(resp.Decisions, planDecision{
			Pair: i, SameNRA: d.SameNRA, Fuse: d.Fuse,
			UnfusedMA: d.UnfusedMA, FusedMA: d.FusedMA, Gain: d.Gain,
		})
	}
	return resp, nil
}

// --- /v1/search -------------------------------------------------------------

func (s *Server) handleSearch(ctx context.Context, req *searchRequest) (any, error) {
	mm := matmulOf(req.Op)

	// auto, exhaustive and coarse are one canonical walk: auto and
	// exhaustive over every integer tiling, coarse over the TileGrid
	// lattice. Each returns the exact answer of a full scan of its lattice,
	// tie-winner included, after a few hundred pricings. The workers field
	// is accepted and ignored: no engine runs a worker pool. Every engine
	// polls ctx.Err(), the walks every 64 cells and candidates and the GA
	// every generation, so an engine that overruns the request's deadline
	// stops at its next poll and degrades below: the principle answer then
	// arrives one core.Optimize (about 15 µs median, 0.15 ms p99 on the
	// paper's LLM shapes, 2-vCPU host) after the deadline.
	var res search.Result
	var err error
	switch req.Engine {
	case "", "auto":
		res, err = search.OptimizeAnalyticCtx(ctx, mm, req.Buffer)
	case "exhaustive":
		res, err = search.WalkCtx(ctx, mm, req.Buffer, search.GridFull)
	case "coarse":
		res, err = search.WalkCtx(ctx, mm, req.Buffer, search.GridCoarse)
	case "genetic":
		res, err = search.GeneticCtx(ctx, mm, req.Buffer, search.GeneticOptions{Seed: req.Seed})
	default:
		return nil, badRequest("service: unknown engine %q (want auto, exhaustive, coarse or genetic)", req.Engine)
	}
	if err != nil {
		if reason, ok := s.degradeReason(ctx, err); ok {
			if resp, derr := s.degradedAnswer(mm, req.Buffer, reason); derr == nil {
				return resp, nil
			}
			// The fallback itself failed (e.g. infeasible buffer): report
			// the engine's original error, which carries the better story.
		}
		return nil, err
	}
	return searchResponse{
		Method:      res.Method,
		Dataflow:    dataflowOf(res.Dataflow, res.Access.NRA, res.Access.Total, res.Access.PerTensor),
		Evaluations: res.Evaluations,
		CacheHits:   res.CacheHits,
	}, nil
}

// degradeReason decides whether a failed search should fall back to the
// principle optimizer: yes when the engine overran the request's deadline
// or failed internally (a contained panic), unless DisableDegrade is set.
// Only a client disconnect refuses the fallback — the request deadline has
// lapsed, but a slightly late degraded answer still beats a 504, and the
// connection is alive to carry it.
func (s *Server) degradeReason(ctx context.Context, err error) (string, bool) {
	if s.cfg.DisableDegrade || errors.Is(ctx.Err(), context.Canceled) {
		return "", false
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline", true
	case errors.Is(err, errs.ErrInternal):
		return "engine_failure", true
	}
	return "", false
}

// degradedAnswer produces the principle-based fallback response — the
// paper's Principle 1–3 optimum, always feasible and never worse than any
// search result the abandoned engine could have returned.
func (s *Server) degradedAnswer(mm op.MatMul, buffer int64, reason string) (searchResponse, error) {
	pr, err := core.Optimize(mm, buffer)
	if err != nil {
		return searchResponse{}, err
	}
	s.reg.Counter("degraded_responses").Inc()
	return searchResponse{
		Method:         "principle",
		Dataflow:       dataflowOf(pr.Dataflow, pr.Access.NRA, pr.Access.Total, pr.Access.PerTensor),
		Degraded:       true,
		DegradedReason: reason,
	}, nil
}

// --- /v1/evaluate -----------------------------------------------------------

func (s *Server) handleEvaluate(ctx context.Context, req *evaluateRequest) (any, error) {
	cfg, err := model.ByName(req.Model)
	if err != nil {
		return nil, err
	}
	if req.Seq > 0 {
		cfg.SeqLen = req.Seq
	}
	w, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	platforms := arch.All()
	if len(req.Platforms) > 0 {
		platforms = platforms[:0:0]
		for _, name := range req.Platforms {
			p, err := arch.ByName(name)
			if err != nil {
				return nil, err
			}
			platforms = append(platforms, p)
		}
	}
	resp := evaluateResponse{Workload: w.Name}
	for _, p := range platforms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := p.EvaluateWorkload(w)
		if err != nil {
			return nil, err
		}
		resp.Results = append(resp.Results, platformResult{
			Platform:     r.Platform,
			MemoryAccess: r.MA,
			Cycles:       r.Cycles,
			MACs:         r.MACs,
			Utilization:  r.Utilization,
		})
	}
	return resp, nil
}
