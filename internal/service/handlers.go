package service

import (
	"context"
	"errors"
	"time"

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

func (s *Server) handleOptimize(ctx context.Context, body []byte) (any, error) {
	var req optimizeRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
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

func (s *Server) handlePlan(ctx context.Context, body []byte) (any, error) {
	var req planRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
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

func (s *Server) handleSearch(ctx context.Context, body []byte) (any, error) {
	var req searchRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	// The engines select GOMAXPROCS for a non-positive count and clamp
	// larger ones to it, so a client cannot size the pool past the host.
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.SearchWorkers
	}
	mm := matmulOf(req.Op)

	// The scan gets only DegradeFraction of the remaining deadline budget:
	// if it cannot finish inside that, the leftover slack is spent producing
	// the principle-based one-shot answer instead of a 504. The paper's
	// closed-form optimizer runs in microseconds, so the fallback always
	// fits the reserve.
	scanCtx := ctx
	degradable := !s.cfg.DisableDegrade
	if deadline, ok := ctx.Deadline(); ok && degradable {
		budget := time.Until(deadline)
		var cancel context.CancelFunc
		scanCtx, cancel = context.WithTimeout(ctx, time.Duration(float64(budget)*s.cfg.DegradeFraction))
		defer cancel()
	}

	// auto is the exact analytic engine alone. The lattice engines first try
	// the shared candidate table for the shape: the per-point scan collapses
	// to an O(log n) footprint lookup, bit-identical to the scan's answer.
	// Shapes above the table cap — and every request when DisableTables is
	// set — keep the scan path. A failed build (e.g. an injected fault in the
	// cost model) flows into the normal error handling below, so the
	// degraded fallback and error mapping are unchanged.
	var res search.Result
	var err error
	switch req.Engine {
	case "", "auto":
		res, err = search.OptimizeAnalyticCtx(scanCtx, mm, req.Buffer)
	case "exhaustive":
		if tab, used, terr := s.searchTable(mm, search.GridFull); terr != nil {
			err = terr
		} else if used {
			res, err = tab.Best(req.Buffer)
		} else {
			res, err = search.ParallelExhaustiveCtx(scanCtx, mm, req.Buffer, workers)
		}
	case "coarse":
		if tab, used, terr := s.searchTable(mm, search.GridCoarse); terr != nil {
			err = terr
		} else if used {
			res, err = tab.Best(req.Buffer)
		} else {
			res, err = search.ParallelCoarseCtx(scanCtx, mm, req.Buffer, workers)
		}
	case "genetic":
		res, err = search.GeneticCtx(scanCtx, mm, req.Buffer, search.GeneticOptions{Seed: req.Seed})
	default:
		return nil, badRequest("service: unknown engine %q (want auto, exhaustive, coarse or genetic)", req.Engine)
	}
	if err != nil {
		if reason, ok := s.degradeReason(ctx, err, degradable); ok {
			if resp, derr := s.degradedAnswer(mm, req.Buffer, reason); derr == nil {
				return resp, nil
			}
			// The fallback itself failed (e.g. infeasible buffer): report
			// the scan's original error, which carries the better story.
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

// searchTable resolves the shared candidate table for mm over grid.
// used=false means the fast path does not apply (disabled, or the lattice
// exceeds the configured cap) and the caller should scan; used=true with a non-nil error means the
// table path was selected but the build failed — the error carries the
// build failure (typically errs.ErrInternal from a contained panic) into
// the handler's normal degradation/error mapping.
func (s *Server) searchTable(mm op.MatMul, grid search.Grid) (*search.CandTable, bool, error) {
	if s.cfg.DisableTables {
		return nil, false, nil
	}
	if n := search.TableCandidates(mm, grid); n <= 0 || n > s.cfg.TableMaxCandidates {
		return nil, false, nil
	}
	tab, err := s.tables.get(mm, grid)
	if err != nil {
		return nil, true, err
	}
	return tab, true, nil
}

// degradeReason decides whether a failed scan should fall back to the
// principle optimizer: yes when the scan ran out of its deadline budget or
// failed internally (a contained panic). Only a client disconnect refuses
// the fallback — even if pool teardown overran the reserve and the request
// deadline itself has lapsed, a slightly late degraded answer still beats a
// 504, and the connection is alive to carry it.
func (s *Server) degradeReason(ctx context.Context, err error, degradable bool) (string, bool) {
	if !degradable || errors.Is(ctx.Err(), context.Canceled) {
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
// search result the abandoned scan could have returned.
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

func (s *Server) handleEvaluate(ctx context.Context, body []byte) (any, error) {
	var req evaluateRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
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
