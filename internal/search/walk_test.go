package search_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fusecu/internal/experiments"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// walkPoint is one oracle input: a shape and a buffer.
type walkPoint struct {
	mm op.MatMul
	bs int64
}

// scaledTableII returns the Table-II and Fig. 11 shapes scaled down so the
// largest extent is maxExt, keeping each shape's aspect ratio (every
// extent at least 1) and dropping duplicates.
func scaledTableII(t *testing.T, maxExt int) []op.MatMul {
	t.Helper()
	shapes, err := experiments.TableIIShapes()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[3]int]bool{}
	var out []op.MatMul
	for _, mm := range shapes {
		big := max(mm.M, mm.K, mm.L)
		scale := func(e int) int { return max(1, (e*maxExt+big/2)/big) }
		s := op.MatMul{Name: mm.Name, M: scale(mm.M), K: scale(mm.K), L: scale(mm.L)}
		if key := [3]int{s.M, s.K, s.L}; !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	return out
}

// walkPoints draws n seeded oracle points with extents up to maxExt: two
// fifths random shapes, one fifth decode shapes (M = 1), one fifth shapes
// with K ≤ 3, and one fifth the scaled Table-II shapes. Buffers are
// log-uniform from the 1×1 floor to past the untiled footprint, so every
// regime, the all-resident one included, is drawn.
func walkPoints(t *testing.T, seed int64, n, maxExt int) []walkPoint {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	table := scaledTableII(t, maxExt)
	ext := func() int { return rng.Intn(maxExt) + 1 }
	out := make([]walkPoint, 0, n)
	for i := 0; i < n; i++ {
		var mm op.MatMul
		switch i % 5 {
		case 0, 1:
			mm = op.MatMul{Name: "rand", M: ext(), K: ext(), L: ext()}
		case 2:
			mm = op.MatMul{Name: "decode", M: 1, K: ext(), L: ext()}
		case 3:
			mm = op.MatMul{Name: "tinyk", M: ext(), K: rng.Intn(3) + 1, L: ext()}
		case 4:
			mm = table[rng.Intn(len(table))]
		}
		untiled := float64(mm.M*mm.K + mm.K*mm.L + mm.M*mm.L)
		bs := int64(3 * math.Pow((untiled+8)/3, rng.Float64()))
		out = append(out, walkPoint{mm, max(bs, 3)})
	}
	return out
}

// checkWalk runs the canonical walk over g at every point and requires the
// reference scan's Dataflow (tie-winner included) and full Access.
func checkWalk(t *testing.T, g search.Grid, points []walkPoint, ref func(op.MatMul, int64) (search.Result, error)) {
	t.Helper()
	ctx := context.Background()
	bad := 0
	for _, p := range points {
		want, err := ref(p.mm, p.bs)
		if err != nil {
			t.Fatalf("%v BS=%d: reference: %v", p.mm, p.bs, err)
		}
		got, err := search.WalkCtx(ctx, p.mm, p.bs, g)
		if err != nil {
			t.Fatalf("%v BS=%d: walk: %v", p.mm, p.bs, err)
		}
		if got.Dataflow != want.Dataflow || got.Access != want.Access {
			bad++
			if bad <= 5 {
				t.Errorf("%v BS=%d %s: walk %v %+v, reference %v %+v",
					p.mm, p.bs, g, got.Dataflow, got.Access, want.Dataflow, want.Access)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%s walk diverged from the reference at %d of %d points", g, bad, len(points))
	}
}

// skipSlowOracle skips the scale oracles where instrumentation makes the
// frozen references too slow; the fuzz target and the small-shape tests
// keep covering the walk there.
func skipSlowOracle(t *testing.T) {
	t.Helper()
	if raceEnabled || invariant.Enabled {
		t.Skip("the frozen reference scans are too slow under -race or fusecuchecks")
	}
}

// TestWalkMatchesReferenceExhaustiveAtScale: at 3·10^3 seeded points with
// extents ≤ 28, the full-lattice walk returns ReferenceExhaustive's
// Dataflow and Access bit for bit, and auto (OptimizeAnalytic) returns the
// same answer as exhaustive.
func TestWalkMatchesReferenceExhaustiveAtScale(t *testing.T) {
	skipSlowOracle(t)
	points := walkPoints(t, 71, 3000, 28)
	checkWalk(t, search.GridFull, points, search.ReferenceExhaustive)
	for _, p := range points {
		ex, err := search.WalkCtx(context.Background(), p.mm, p.bs, search.GridFull)
		if err != nil {
			t.Fatal(err)
		}
		auto, err := search.OptimizeAnalytic(p.mm, p.bs)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Method != "exhaustive" || auto.Method != "analytic" {
			t.Fatalf("methods %q and %q, want exhaustive and analytic", ex.Method, auto.Method)
		}
		ex.Method = auto.Method
		if auto != ex {
			t.Fatalf("%v BS=%d: auto %+v differs from exhaustive %+v", p.mm, p.bs, auto, ex)
		}
	}
}

// TestWalkMatchesReferenceCoarseAtScale: DAT's lattice stage — the coarse
// walk's answer with the counted lattice as its Evaluations — returns
// ReferenceCoarse's Dataflow, Access and Evaluations at 3·10^3 seeded
// points with extents ≤ 200 (one in twenty at the infeasible buffers 0–2,
// where both must fail) and at the 682 Fig. 9 and Table-II/Fig. 11 points.
func TestWalkMatchesReferenceCoarseAtScale(t *testing.T) {
	skipSlowOracle(t)
	points := walkPoints(t, 72, 3000, 200)
	for i := 0; i < len(points); i += 20 {
		points[i].bs = int64(i / 20 % 3)
	}
	shapes, err := experiments.TableIIShapes()
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range append(experiments.Fig9Ops(), shapes...) {
		for _, bs := range experiments.Fig9Buffers() {
			points = append(points, walkPoint{mm, bs})
		}
	}
	if len(points) != 3000+682 {
		t.Fatalf("%d points, want 3682", len(points))
	}
	ctx := context.Background()
	bad := 0
	for _, p := range points {
		want, werr := search.ReferenceCoarse(p.mm, p.bs)
		got, gerr := search.CoarseStage(ctx, p.mm, p.bs)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%v BS=%d: error mismatch: reference %v, lattice stage %v", p.mm, p.bs, werr, gerr)
		}
		if werr != nil {
			if p.bs >= 3 {
				t.Fatalf("%v BS=%d: reference: %v", p.mm, p.bs, werr)
			}
			continue
		}
		if got.Dataflow != want.Dataflow || got.Access != want.Access || got.Evaluations != want.Evaluations {
			bad++
			if bad <= 5 {
				t.Errorf("%v BS=%d: lattice stage %v %+v after %d visits, reference %v %+v after %d",
					p.mm, p.bs, got.Dataflow, got.Access, got.Evaluations, want.Dataflow, want.Access, want.Evaluations)
			}
		}
	}
	if bad > 0 {
		t.Errorf("DAT's lattice stage diverged from ReferenceCoarse at %d of %d points", bad, len(points))
	}
}

// searchHotBuffers are fleetbench search-hot's buffers (elements): for the
// ServeLoadOps shapes they fall in the tiny/small, medium and large regimes.
var searchHotBuffers = []int64{128, 512, 2048}

// BenchmarkSearchHotWalk is one pass over fleetbench search-hot's 54
// (shape, buffer, engine) points — the ServeLoadOps shapes × three buffers
// × exhaustive and coarse — through the engine /v1/search serves them
// with: a fresh canonical walk per request, kernel and grids included.
func BenchmarkSearchHotWalk(b *testing.B) {
	ctx := context.Background()
	ops := experiments.ServeLoadOps()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, mm := range ops {
			for _, bs := range searchHotBuffers {
				for _, g := range []search.Grid{search.GridFull, search.GridCoarse} {
					if _, err := search.WalkCtx(ctx, mm, bs, g); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}
