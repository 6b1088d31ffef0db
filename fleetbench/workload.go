package main

import (
	"fmt"
	"math/rand"
	"sync"

	"fusecu/api"
	"fusecu/internal/experiments"
	"fusecu/internal/model"
	"fusecu/internal/op"
)

// request is one API call of a workload.
type request struct {
	// Key names the request uniquely within its workload; the oracle files
	// its expected answer under it.
	Key string
	// Body is *api.OptimizeRequest, *api.PlanRequest, *api.EvaluateRequest
	// or *api.SearchRequest; its type selects the endpoint.
	Body any
	// Warm marks the requests of the warm-up pass: the first request of
	// each distinct operator, chain or model per endpoint and engine, so
	// every lazily built server structure exists before timing starts.
	Warm bool
}

// endpoint names the request's /v1 endpoint.
func (r request) endpoint() string {
	switch r.Body.(type) {
	case *api.OptimizeRequest:
		return "optimize"
	case *api.PlanRequest:
		return "plan"
	case *api.EvaluateRequest:
		return "evaluate"
	case *api.SearchRequest:
		return "search"
	}
	panic(fmt.Sprintf("fleetbench: request %s has body %T", r.Key, r.Body))
}

// workloadNames lists the workloads in the order the README describes them.
var workloadNames = []string{"principle-llm", "search-llm", "search-hot"}

// transportBound marks the workloads whose requests are mostly transport
// (JSON, loopback, the router hop) rather than engine work; their timings
// are reported at the reference host speed (see probe.go). principle-llm's
// requests are engine-bound: the probe does not track them, and scaling
// them by it added the probe's noise in trials.
var transportBound = map[string]bool{"search-llm": true, "search-hot": true}

// hotBuffers are search-hot's buffer sizes (elements): for the ServeLoadOps
// shapes they fall in the tiny/small, medium and large regimes.
var hotBuffers = []int64{128, 512, 2048}

// requestSet builds a workload's request set. The inputs come from the
// paper's evaluation (Table II, Fig. 9, Fig. 11), so the set is fixed; the
// seed only orders it.
func requestSet(name string) ([]request, error) {
	switch name {
	case "principle-llm":
		return principleSet()
	case "search-llm":
		shapes, err := experiments.TableIIShapes()
		if err != nil {
			return nil, err
		}
		return searchSet(shapes, experiments.Fig9Buffers(), []string{"auto"}), nil
	case "search-hot":
		return searchSet(experiments.ServeLoadOps(), hotBuffers, []string{"exhaustive", "coarse"}), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func opSpec(mm op.MatMul) api.OpSpec {
	return api.OpSpec{Name: mm.Name, M: mm.M, K: mm.K, L: mm.L}
}

func shapeKey(mm op.MatMul) string { return fmt.Sprintf("%dx%dx%d", mm.M, mm.K, mm.L) }

// principleSet is /v1/optimize over every Table-II + Fig. 11 shape × Fig. 9
// buffer, /v1/plan over every distinct chain of those models × the same
// buffers, and /v1/evaluate for each Table II model.
func principleSet() ([]request, error) {
	shapes, err := experiments.TableIIShapes()
	if err != nil {
		return nil, err
	}
	buffers := experiments.Fig9Buffers()
	var out []request
	for _, mm := range shapes {
		for i, b := range buffers {
			out = append(out, request{
				Key:  fmt.Sprintf("optimize/%s/%d", shapeKey(mm), b),
				Body: &api.OptimizeRequest{Op: opSpec(mm), Buffer: b},
				Warm: i == 0,
			})
		}
	}
	chains, err := llmChains()
	if err != nil {
		return nil, err
	}
	for _, c := range chains {
		for i, b := range buffers {
			out = append(out, request{
				Key:  fmt.Sprintf("plan/%s/%d", c.key, b),
				Body: &api.PlanRequest{Name: c.name, Ops: c.ops, Buffer: b},
				Warm: i == 0,
			})
		}
	}
	for _, cfg := range model.TableII() {
		out = append(out, request{
			Key:  "evaluate/" + cfg.Name,
			Body: &api.EvaluateRequest{Model: cfg.Name},
			Warm: true,
		})
	}
	return out, nil
}

type chainSpec struct {
	key, name string
	ops       []api.OpSpec
}

// llmChains returns the distinct operator chains of the Table II models and
// the Fig. 11 LLaMA2 sequence sweep, deduplicated by name and shapes.
func llmChains() ([]chainSpec, error) {
	configs := model.TableII()
	for _, s := range model.Fig11SeqLengths() {
		configs = append(configs, model.LLaMA2WithSeq(s))
	}
	seen := map[string]bool{}
	var out []chainSpec
	for _, cfg := range configs {
		w, err := cfg.Build()
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", cfg.Name, err)
		}
		for _, wc := range w.Chains {
			c := chainSpec{key: wc.Chain.Name, name: wc.Chain.Name}
			for _, mm := range wc.Chain.Ops {
				c.key += "/" + shapeKey(mm)
				c.ops = append(c.ops, opSpec(mm))
			}
			if !seen[c.key] {
				seen[c.key] = true
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// searchSet is /v1/search with each engine over shapes × buffers.
func searchSet(shapes []op.MatMul, buffers []int64, engines []string) []request {
	var out []request
	for _, engine := range engines {
		for _, mm := range shapes {
			for i, b := range buffers {
				out = append(out, request{
					Key:  fmt.Sprintf("search-%s/%s/%d", engine, shapeKey(mm), b),
					Body: &api.SearchRequest{Op: opSpec(mm), Buffer: b, Engine: engine},
					Warm: i == 0,
				})
			}
		}
	}
	return out
}

// sequence is the seeded order in which a workload's requests are sent:
// pass p is a permutation of the whole request set drawn from (seed, p), and
// passes follow each other without end. Safe for concurrent use; the k-th
// call of next returns the same request for the same seed however the
// calls are spread over clients.
type sequence struct {
	mu   sync.Mutex
	n    int
	seed int64
	pos  int64
	perm []int
}

func newSequence(n int, seed int64) *sequence { return &sequence{n: n, seed: seed} }

// next returns the sequence position (the request ID) and the index of
// the request at that position.
func (s *sequence) next() (id int64, req int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advance()
}

// nextInPass is next, except that it reports false instead of beginning a
// new pass once stop returns true.
func (s *sequence) nextInPass(stop func() bool) (id int64, req int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pos%int64(s.n) == 0 && stop() {
		return 0, 0, false
	}
	id, req = s.advance()
	return id, req, true
}

func (s *sequence) advance() (id int64, req int) {
	id = s.pos
	s.pos++
	i := int(id % int64(s.n))
	if i == 0 {
		pass := id / int64(s.n)
		s.perm = rand.New(rand.NewSource(s.seed*1_000_003 + pass)).Perm(s.n)
	}
	return id, s.perm[i]
}
