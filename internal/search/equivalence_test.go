package search

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fusecu/internal/op"
)

// walkFull is the full-lattice walk, the engine behind /v1/search auto and
// exhaustive, under a Background context.
func walkFull(mm op.MatMul, bs int64) (Result, error) {
	return WalkCtx(context.Background(), mm, bs, GridFull)
}

// datLattice is DAT's lattice stage as Optimize runs it, under a Background
// context: the coarse walk's answer with the counted lattice as its
// Evaluations.
func datLattice(mm op.MatMul, bs int64) (Result, error) {
	return coarseStage(context.Background(), mm, bs)
}

// checkSameAnswer asserts got reproduces the reference optimum exactly:
// same dataflow (including the deterministic tie-break) and the same
// access breakdown.
func checkSameAnswer(t *testing.T, label string, ref, got Result) {
	t.Helper()
	if got.Dataflow != ref.Dataflow {
		t.Errorf("%s: dataflow %v, reference %v", label, got.Dataflow, ref.Dataflow)
	}
	if got.Access != ref.Access {
		t.Errorf("%s: access %+v, reference %+v", label, got.Access, ref.Access)
	}
}

// checkEquivalent is checkSameAnswer plus the candidate-visit count of an
// engine that accounts for the whole lattice (DAT's counted lattice stage,
// a candidate table): Evaluations + CacheHits must equal the reference
// scan's Evaluations.
func checkEquivalent(t *testing.T, label string, ref, got Result) {
	t.Helper()
	checkSameAnswer(t, label, ref, got)
	if got.Evaluations+got.CacheHits != ref.Evaluations {
		t.Errorf("%s: evals %d + hits %d != reference evals %d",
			label, got.Evaluations, got.CacheHits, ref.Evaluations)
	}
}

func TestExhaustiveEnginesMatchReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		mm := op.MatMul{
			Name: "rand",
			M:    rng.Intn(9) + 1,
			K:    rng.Intn(9) + 1,
			L:    rng.Intn(9) + 1,
		}
		// Buffers from infeasible through unconstrained.
		maxFP := mm.SizeA() + mm.SizeB() + mm.SizeC()
		for _, bs := range []int64{2, 3, 7, maxFP / 2, maxFP, maxFP * 2} {
			ref, refErr := ReferenceExhaustive(mm, bs)
			got, err := walkFull(mm, bs)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%v BS=%d: err=%v, reference err=%v", mm, bs, err, refErr)
			}
			if refErr != nil {
				continue
			}
			checkSameAnswer(t, "walk", ref, got)
		}
	}
}

func TestCoarseEnginesMatchReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		mm := op.MatMul{
			Name: "rand",
			M:    rng.Intn(60) + 1,
			K:    rng.Intn(60) + 1,
			L:    rng.Intn(60) + 1,
		}
		maxFP := mm.SizeA() + mm.SizeB() + mm.SizeC()
		for _, bs := range []int64{2, 5, 16, maxFP / 3, maxFP * 2} {
			ref, refErr := ReferenceCoarse(mm, bs)
			got, err := datLattice(mm, bs)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%v BS=%d: err=%v, reference err=%v", mm, bs, err, refErr)
			}
			if refErr != nil {
				continue
			}
			checkEquivalent(t, "dat-lattice", ref, got)
		}
	}
}

// TestDecodeShapeEnginesMatchReference pins bit-identity off the
// square-ish Table-II shapes: decode-style operators — M=1 GEMV, tiny-K MoE
// projection, small-L GQA score — degenerate one or two lattice dimensions
// to a handful of tiles, exercising unit-extent cells the walk skips,
// orders whose inner loops never trip, and a lattice count whose T_K scan
// stops at the first tile. The walk and DAT's counted lattice stage must
// still reproduce the frozen references exactly.
func TestDecodeShapeEnginesMatchReference(t *testing.T) {
	shapes := []op.MatMul{
		{Name: "gemv", M: 1, K: 48, L: 40},
		{Name: "moe-tinyk", M: 24, K: 2, L: 56},
		{Name: "gqa-smalll", M: 40, K: 36, L: 3},
	}
	for _, mm := range shapes {
		maxFP := mm.SizeA() + mm.SizeB() + mm.SizeC()
		buffers := []int64{2, 3, 17, maxFP / 4, maxFP * 2}

		// Full lattice on a shrunken copy, so the frozen full-range
		// reference stays cheap.
		exact := mm
		if exact.M > 8 {
			exact.M = 8
		}
		if exact.K > 8 {
			exact.K = 8
		}
		if exact.L > 8 {
			exact.L = 8
		}
		for _, bs := range buffers {
			ref, refErr := ReferenceExhaustive(exact, bs)
			got, err := walkFull(exact, bs)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%v BS=%d: err=%v, reference err=%v", exact, bs, err, refErr)
			}
			if refErr != nil {
				continue
			}
			checkSameAnswer(t, exact.Name+"/walk", ref, got)
		}

		// Coarse lattice at the real decode dimensions.
		for _, bs := range buffers {
			ref, refErr := ReferenceCoarse(mm, bs)
			got, err := datLattice(mm, bs)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%v BS=%d: err=%v, reference err=%v", mm, bs, err, refErr)
			}
			if refErr != nil {
				continue
			}
			checkEquivalent(t, mm.Name+"/dat-lattice", ref, got)
		}
	}
}

// TestOptimizeConservationWithAnalyticPolish pins the visit-conservation
// story for DAT's hybrid entry points: Optimize's evaluations are the
// lattice candidates ReferenceCoarse visits plus the GA polish's, and
// OptimizeTable serves the same
// lattice visits from a candidate table as CacheHits, conserving the sum,
// while the GA contributes zero hits. The analytic engine, which replaces
// the whole hybrid on /v1/search auto, prices ≥ 10× fewer candidates than
// the GA alone.
func TestOptimizeConservationWithAnalyticPolish(t *testing.T) {
	mm := op.MatMul{Name: "conserve", M: 96, K: 48, L: 64}
	const bs = 4096

	lattice, err := ReferenceCoarse(mm, bs)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := Genetic(mm, bs, GeneticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ga.CacheHits != 0 {
		t.Fatalf("GA reported %d cache hits, want 0", ga.CacheHits)
	}

	scan, err := Optimize(mm, bs, GeneticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if scan.CacheHits != 0 {
		t.Errorf("optimize reported %d cache hits", scan.CacheHits)
	}
	if want := lattice.Evaluations + ga.Evaluations; scan.Evaluations != want {
		t.Errorf("optimize evaluations %d != lattice %d + GA %d",
			scan.Evaluations, lattice.Evaluations, ga.Evaluations)
	}

	tab, err := NewCandTable(mm, GridCoarse, nil)
	if err != nil {
		t.Fatal(err)
	}
	served, err := OptimizeTable(mm, bs, GeneticOptions{}, tab)
	if err != nil {
		t.Fatal(err)
	}
	if served.Evaluations+served.CacheHits != scan.Evaluations {
		t.Errorf("table visits %d+%d break conservation with scan %d",
			served.Evaluations, served.CacheHits, scan.Evaluations)
	}
	// The table serves every lattice visit, so the only remaining cost-model
	// invocations are the GA's own.
	if served.Evaluations != ga.Evaluations {
		t.Errorf("table-served evaluations %d != GA count %d",
			served.Evaluations, ga.Evaluations)
	}
	if served.Access != scan.Access || served.Dataflow != scan.Dataflow {
		t.Errorf("table-served optimum diverged: %+v vs %+v", served, scan)
	}
	if an, err := OptimizeAnalytic(mm, bs); err != nil {
		t.Fatal(err)
	} else if an.Evaluations*10 > ga.Evaluations {
		t.Errorf("analytic %d evals not 10x below the GA's %d",
			an.Evaluations, ga.Evaluations)
	}
}

func TestGeneticSeedDeterminismFullResult(t *testing.T) {
	mm := op.MatMul{M: 64, K: 48, L: 96}
	opts := GeneticOptions{Seed: 42, Population: 32, Generations: 20}
	a, err := Genetic(mm, 2048, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Genetic(mm, 2048, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed produced different Results: %+v vs %+v", a, b)
	}
	c, err := Genetic(mm, 2048, GeneticOptions{Seed: -42, Population: 32, Generations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if c.Evaluations == 0 {
		t.Fatal("negative seed run recorded no evaluations")
	}
}

func TestGeneticOptionsElitismSentinel(t *testing.T) {
	// Zero value keeps the historical defaults, including the 4 elites
	// the retired negative sentinel could once switch off.
	o := GeneticOptions{}.withDefaults()
	if o.Population != 64 || o.Generations != 60 || o.Seed != 1 || o.elites() != 4 {
		t.Fatalf("defaults = %+v with %d elites", o, o.elites())
	}
	// A population too small for 4 elites clamps them to half of it and
	// still runs end to end.
	small := GeneticOptions{Seed: 5, Population: 6, Generations: 10}
	if got := small.withDefaults().elites(); got != 3 {
		t.Fatalf("population 6 → %d elites, want 3", got)
	}
	mm := op.MatMul{M: 16, K: 12, L: 8}
	r, err := Genetic(mm, 200, small)
	if err != nil {
		t.Fatal(err)
	}
	if r.Access.Footprint > 200 {
		t.Fatalf("clamped-elites run infeasible: %+v", r.Access)
	}
}

func TestInfeasibleFitnessSaturatesInsteadOfWrapping(t *testing.T) {
	// Regression for the penalty total + (footprint-buffer)·1024: with a
	// huge-operator footprint the product alone exceeds int64. The old
	// expression wrapped negative, ranking the infeasible genome above
	// every feasible one.
	hugeOverflow := int64(1) << 53 // ·1024 = 2^63 > MaxInt64
	if old := int64(123) + hugeOverflow*1024; old >= 0 {
		t.Fatalf("expected the unchecked expression to wrap, got %d", old)
	}
	if got := infeasibleFitness(123, hugeOverflow); got != math.MaxInt64 {
		t.Fatalf("product overflow: fitness = %d, want saturation", got)
	}
	// Addition overflow saturates too.
	if got := infeasibleFitness(math.MaxInt64-10, 1); got != math.MaxInt64 {
		t.Fatalf("sum overflow: fitness = %d, want saturation", got)
	}
	// Small overflows keep the original proportional-pressure semantics.
	if got := infeasibleFitness(1000, 3); got != 1000+3*1024 {
		t.Fatalf("small overflow: fitness = %d", got)
	}
	// Saturated fitness must rank below (worse than) any feasible total.
	if infeasibleFitness(1, hugeOverflow) <= (int64(1) << 62) {
		t.Fatal("saturated penalty does not dominate feasible totals")
	}
}

func TestGeneticHugeOperatorStaysFeasible(t *testing.T) {
	// Huge-op regression: M·K = 2^54, so an untiled genome's footprint
	// alone makes (footprint-buffer)·1024 overflow int64. The dimensions
	// are chosen so every representable traffic value still fits int64
	// (M·K·L = 2^60), keeping the run clean under -tags=fusecuchecks.
	mm := op.MatMul{Name: "huge", M: 1 << 27, K: 1 << 27, L: 1 << 6}
	if got := infeasibleFitness(0, mm.SizeA()-4); got != math.MaxInt64 {
		t.Fatalf("huge-op penalty did not saturate: %d", got)
	}
	r, err := Genetic(mm, 1<<20, GeneticOptions{Seed: 3, Population: 16, Generations: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Access.Footprint > 1<<20 {
		t.Fatalf("huge-op GA returned infeasible footprint %d", r.Access.Footprint)
	}
	if r.Access.Total < mm.IdealMA() {
		t.Fatalf("huge-op GA total %d below ideal %d", r.Access.Total, mm.IdealMA())
	}
}
