package core_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fusecu/internal/arch"
	"fusecu/internal/core"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/experiments"
	"fusecu/internal/fusion"
	"fusecu/internal/invariant"
	"fusecu/internal/model"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// raceEnabled is set by race_test.go under -race. Its instrumentation, like
// the fusecuchecks assertions, slows the linear sweeps of the LLM grid to
// minutes; the random and decode cases still run there.
var raceEnabled bool

// gridConstraints returns the unconstrained space plus every distinct
// platform constraint of arch.All().
func gridConstraints() []core.Constraint {
	out := []core.Constraint{core.Unconstrained}
	for _, p := range arch.All() {
		dup := false
		for _, c := range out {
			dup = dup || reflect.DeepEqual(c, p.Constraint)
		}
		if !dup {
			out = append(out, p.Constraint)
		}
	}
	return out
}

// Every Table-II and Fig. 11 shape at every Fig. 9 buffer: the plateau walks
// return the linear sweeps' Candidate, unconstrained and under each
// platform's constraint.
func TestPlateauWalkMatchesLinearSweepLLMGrid(t *testing.T) {
	if raceEnabled || invariant.Enabled {
		t.Skip("linear sweeps over the LLM grid are too slow under -race or fusecuchecks")
	}
	shapes, err := experiments.TableIIShapes()
	if err != nil {
		t.Fatal(err)
	}
	constraints := gridConstraints()
	for _, mm := range shapes {
		mm := mm
		t.Run(mm.String(), func(t *testing.T) {
			t.Parallel()
			for _, bs := range experiments.Fig9Buffers() {
				for _, st := range dataflow.Tensors() {
					got, gok := core.SingleNRACandidate(mm, bs, st)
					want, wok := core.ReferenceSingleNRACandidate(mm, bs, st)
					if gok != wok || got != want {
						t.Fatalf("BS=%d %s stationary: walk %+v, sweep %+v", bs, st, got, want)
					}
					for _, c := range constraints {
						got, gok := core.FrontierCandidate(mm, bs, st, c)
						want, wok := core.ReferenceFrontierCandidate(mm, bs, st, c)
						if gok != wok || got != want {
							t.Fatalf("BS=%d %s stationary %+v: walk %+v, sweep %+v", bs, st, c, got, want)
						}
					}
				}
			}
		})
	}
}

// PlanChainOpts reuses each operator's optimum for the Principle 4
// decisions; they must equal the per-pair DecideFusionConstrained answers.
func TestPlanChainDecisionsMatchPerPairDecisions(t *testing.T) {
	configs := model.TableII()
	for _, s := range model.Fig11SeqLengths() {
		configs = append(configs, model.LLaMA2WithSeq(s))
	}
	var chains []*op.Chain
	for _, cfg := range configs {
		w, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, wc := range w.Chains {
			chains = append(chains, wc.Chain)
		}
	}
	for _, c := range gridConstraints() {
		for _, bs := range experiments.Fig9Buffers() {
			for _, chain := range chains {
				plan, err := core.PlanChainOpts(chain, bs, core.PlanOptions{Constraint: c, AllowFusion: true})
				if errors.Is(err, errs.ErrInfeasible) {
					continue // a coarse lattice can leave a small buffer no tile
				}
				if err != nil {
					t.Fatalf("%s BS=%d: %v", chain.Name, bs, err)
				}
				if len(plan.Decisions) != chain.Len()-1 {
					t.Fatalf("%s BS=%d: %d decisions for %d ops", chain.Name, bs, len(plan.Decisions), chain.Len())
				}
				for i, got := range plan.Decisions {
					pair, err := fusion.NewPair(chain.Ops[i], chain.Ops[i+1])
					if err != nil {
						t.Fatal(err)
					}
					want, err := core.DecideFusionConstrained(pair, bs, c)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s BS=%d pair %d %+v: plan decision %+v, per-pair %+v", chain.Name, bs, i, c, got, want)
					}
				}
			}
		}
	}
}

// Optimize is exact at scale: its Total equals the analytic engine's exact
// optimum on 10^4 seeded random points with extents up to 2^20 and buffers
// 3 … 2^25, a quarter of them decode-shaped (M = 1 or K ≤ 3).
func TestOptimizeMatchesAnalyticAtScale(t *testing.T) {
	if raceEnabled || invariant.Enabled {
		t.Skip("10^4 exact optimizations are too slow under -race or fusecuchecks")
	}
	rng := rand.New(rand.NewSource(16))
	logUniform := func(lo, hi float64) int64 {
		return int64(math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo))))
	}
	const points = 10_000
	decode := 0
	for i := 0; i < points; i++ {
		dim := func() int { return int(logUniform(1, 1<<20)) }
		mm := op.MatMul{M: dim(), K: dim(), L: dim()}
		if rng.Intn(4) == 0 {
			if rng.Intn(2) == 0 {
				mm.M = 1
			} else {
				mm.K = 1 + rng.Intn(3)
			}
		}
		if mm.M == 1 || mm.K <= 3 {
			decode++
		}
		bs := max(3, logUniform(3, 1<<25))
		got, err := core.Optimize(mm, bs)
		if err != nil {
			t.Fatalf("core.Optimize(%v, %d): %v", mm, bs, err)
		}
		want, err := search.OptimizeAnalytic(mm, bs)
		if err != nil {
			t.Fatalf("search.OptimizeAnalytic(%v, %d): %v", mm, bs, err)
		}
		if got.Access.Total != want.Access.Total {
			t.Fatalf("%v BS=%d: core.Optimize Total %d (%v), analytic %d (%v)",
				mm, bs, got.Access.Total, got.Dataflow, want.Access.Total, want.Dataflow)
		}
	}
	if decode < points/5 {
		t.Fatalf("%d of %d points decode-shaped, want at least a fifth", decode, points)
	}
}
