package main

// The traced run's calls into the system's layers in process: the service
// handler, the engines (core, arch, search) and the cost kernels. The
// untraced run never calls these; it reaches the system only through the
// public client and api packages.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"fusecu/api"
	"fusecu/internal/arch"
	"fusecu/internal/core"
	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/model"
	"fusecu/internal/op"
	"fusecu/internal/search"
	"fusecu/internal/service"
)

// layers holds the in-process system the traced run calls: a service
// handler configured as fusecu-serve configures it, and the candidate
// tables the search engines are handed, prebuilt as a warm replica holds
// them.
type layers struct {
	handler http.Handler
	cache   *search.EvalCache
	tables  map[string]*search.CandTable // by engine + shape
	// tableBuild and tableCandidates total the table builds.
	tableBuild      time.Duration
	tableCandidates int64
	// evalProbe times Platform.EvaluateWorkload over arch.All() once per
	// distinct /v1/evaluate request, in milliseconds.
	evalProbe []float64
}

func newLayers(reqs []request) (*layers, error) {
	l := &layers{
		handler: service.New(service.Config{}).Handler(),
		cache:   search.NewEvalCache(),
		tables:  map[string]*search.CandTable{},
	}
	for _, r := range reqs {
		switch b := r.Body.(type) {
		case *api.SearchRequest:
			if err := l.buildTable(b); err != nil {
				return nil, err
			}
		case *api.EvaluateRequest:
			w, err := workloadOf(b)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := evaluateAll(w); err != nil {
				return nil, err
			}
			l.evalProbe = append(l.evalProbe, ms(time.Since(start)))
		}
	}
	return l, nil
}

// buildTable builds the table the service would serve b from, if any: the
// coarse lattice for auto below search.CoarseLatticeLimit, the full or
// coarse lattice for the exhaustive and coarse engines.
func (l *layers) buildTable(b *api.SearchRequest) error {
	mm := matmul(b.Op)
	grid := search.GridCoarse
	switch b.Engine {
	case "auto":
		if search.CoarseLattice(mm) > search.CoarseLatticeLimit {
			return nil
		}
	case "exhaustive":
		grid = search.GridFull
	}
	key := tableKey(b)
	if _, ok := l.tables[key]; ok {
		return nil
	}
	start := time.Now()
	tab, err := search.NewCandTable(mm, grid, l.cache)
	if err != nil {
		return fmt.Errorf("build %s table: %w", key, err)
	}
	l.tableBuild += time.Since(start)
	l.tableCandidates += tab.Candidates()
	l.tables[key] = tab
	return nil
}

func tableKey(b *api.SearchRequest) string {
	return fmt.Sprintf("%s/%dx%dx%d", b.Engine, b.Op.M, b.Op.K, b.Op.L)
}

// handle calls the in-process handler with r's body under a
// "service.handler" span and returns the span's ID and the status.
func (l *layers) handle(t *reqTrace, parent int, r request) (int, int, error) {
	body, err := json.Marshal(r.Body)
	if err != nil {
		return 0, 0, err
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/"+r.endpoint(), bytes.NewReader(body))
	rec := httptest.NewRecorder()
	id := t.start("service.handler", "service", parent)
	l.handler.ServeHTTP(rec, req)
	t.end(id, 0)
	return id, rec.Code, nil
}

// engine calls the engine serving r, under a span of the engine's module,
// with the cost-kernel work it reports replayed as child spans.
func (l *layers) engine(t *reqTrace, parent int, r request) error {
	switch b := r.Body.(type) {
	case *api.OptimizeRequest:
		mm := matmul(b.Op)
		id := t.start("core.Optimize", "core", parent)
		res, err := core.Optimize(mm, b.Buffer)
		if err != nil {
			return err
		}
		t.end(id, len(res.Considered))
		dfs := make([]dataflow.Dataflow, len(res.Considered))
		for i, c := range res.Considered {
			dfs[i] = c.Dataflow
		}
		return priceEach(t, id, []op.MatMul{mm}, [][]dataflow.Dataflow{dfs})
	case *api.PlanRequest:
		ops := make([]op.MatMul, len(b.Ops))
		for i, o := range b.Ops {
			ops[i] = matmul(o)
		}
		chain, err := op.NewChain(b.Name, ops...)
		if err != nil {
			return err
		}
		id := t.start("core.PlanChain", "core", parent)
		plan, err := core.PlanChain(chain, b.Buffer)
		if err != nil {
			return err
		}
		t.end(id, 0)
		var mms []op.MatMul
		var dfs [][]dataflow.Dataflow
		for _, g := range plan.Groups {
			if g.Fusedp() {
				continue
			}
			var set []dataflow.Dataflow
			for _, c := range g.Intra.Considered {
				set = append(set, c.Dataflow)
			}
			mms, dfs = append(mms, ops[g.Start]), append(dfs, set)
		}
		return priceEach(t, id, mms, dfs)
	case *api.EvaluateRequest:
		w, err := workloadOf(b)
		if err != nil {
			return err
		}
		id := t.start("arch.EvaluateWorkload", "arch", parent)
		n, err := evaluateAll(w)
		t.end(id, n)
		return err
	case *api.SearchRequest:
		return l.search(t, parent, b)
	}
	return fmt.Errorf("no engine for %T", r.Body)
}

func (l *layers) search(t *reqTrace, parent int, b *api.SearchRequest) error {
	mm := matmul(b.Op)
	tab := l.tables[tableKey(b)]
	if b.Engine != "auto" {
		if tab == nil {
			return fmt.Errorf("no %s table for %v", b.Engine, mm)
		}
		id := t.start("search.CandTable.Best", "search", parent)
		_, err := tab.Best(b.Buffer)
		t.end(id, 0)
		return err
	}
	id := t.start("search.OptimizeTable", "search", parent)
	_, err := search.OptimizeTableCtx(context.Background(), mm, b.Buffer, search.GeneticOptions{}, tab, l.cache)
	t.end(id, 0)
	if err != nil {
		return err
	}
	// The polish stage inside OptimizeTable is the analytic engine: time it
	// alone, then the batch kernel over as many candidates as it priced.
	aid := t.start("search.OptimizeAnalytic", "search", id)
	res, err := search.OptimizeAnalytic(mm, b.Buffer)
	t.end(aid, int(res.Evaluations))
	if err != nil {
		return err
	}
	kern, err := cost.NewBatchEval(mm, dataflow.AllOrders())
	if err != nil {
		return err
	}
	blk := latticeBlock(mm, int(res.Evaluations))
	kid := t.start("cost.EvalBlock", "cost", aid)
	kern.EvalBlock(blk)
	t.end(kid, blk.Len())
	return nil
}

// latticeBlock fills a block with n candidates of mm's coarse lattice,
// cycling through the loop orders.
func latticeBlock(mm op.MatMul, n int) *cost.Block {
	gm, gk, gl := search.TileGrid(mm.M), search.TileGrid(mm.K), search.TileGrid(mm.L)
	blk := cost.NewBlock(n)
	orders := len(dataflow.AllOrders())
	for i := 0; i < n; i++ {
		tm := gm[i%len(gm)]
		tk := gk[(i/len(gm))%len(gk)]
		tl := gl[(i/(len(gm)*len(gk)))%len(gl)]
		blk.Push(uint8(i%orders), int32(tm), int32(tk), int32(tl), int64(tm*tk+tk*tl+tm*tl))
	}
	return blk
}

// priceEach replays cost.Evaluate over each operator's dataflows, one
// "cost.Evaluate" span per operator.
func priceEach(t *reqTrace, parent int, mms []op.MatMul, dfs [][]dataflow.Dataflow) error {
	for i, mm := range mms {
		id := t.start("cost.Evaluate", "cost", parent)
		for _, df := range dfs[i] {
			if _, err := cost.Evaluate(mm, df); err != nil {
				return err
			}
		}
		t.end(id, len(dfs[i]))
	}
	return nil
}

func workloadOf(b *api.EvaluateRequest) (*model.Workload, error) {
	cfg, err := model.ByName(b.Model)
	if err != nil {
		return nil, err
	}
	return cfg.Build()
}

// evaluateAll runs the workload on every platform, as /v1/evaluate does
// without a platform filter, and returns the platform count.
func evaluateAll(w *model.Workload) (int, error) {
	ps := arch.All()
	for _, p := range ps {
		if _, err := p.EvaluateWorkload(w); err != nil {
			return 0, err
		}
	}
	return len(ps), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
