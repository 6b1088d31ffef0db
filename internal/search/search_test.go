package search

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fusecu/internal/dataflow"
	"fusecu/internal/op"
)

func TestExhaustiveFindsIdealWithHugeBuffer(t *testing.T) {
	mm := op.MatMul{M: 8, K: 6, L: 10}
	r, err := walkFull(mm, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Access.Total != mm.IdealMA() {
		t.Fatalf("Total = %d, want %d", r.Access.Total, mm.IdealMA())
	}
	if r.Method != "exhaustive" {
		t.Fatalf("method = %q", r.Method)
	}
	if r.Evaluations == 0 {
		t.Fatal("no evaluations recorded")
	}
}

func TestExhaustiveRespectsBuffer(t *testing.T) {
	mm := op.MatMul{M: 8, K: 6, L: 10}
	r, err := walkFull(mm, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Access.Footprint > 20 {
		t.Fatalf("footprint %d > 20", r.Access.Footprint)
	}
}

func TestExhaustiveInfeasible(t *testing.T) {
	if _, err := walkFull(op.MatMul{M: 4, K: 4, L: 4}, 2); err == nil {
		t.Fatal("buffer of 2 elements accepted")
	}
}

func TestExhaustiveRejectsInvalid(t *testing.T) {
	if _, err := walkFull(op.MatMul{M: -1, K: 1, L: 1}, 100); err == nil {
		t.Fatal("invalid matmul accepted")
	}
}

func TestTileGridContents(t *testing.T) {
	g := TileGrid(24)
	want := map[int]bool{1: true, 2: true, 3: true, 4: true, 6: true, 8: true, 12: true, 16: true, 24: true}
	if len(g) != len(want) {
		t.Fatalf("TileGrid(24) = %v", g)
	}
	for _, v := range g {
		if !want[v] {
			t.Fatalf("unexpected grid value %d in %v", v, g)
		}
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatal("grid not strictly sorted")
		}
	}
}

func TestTileGridExtentOne(t *testing.T) {
	g := TileGrid(1)
	if len(g) != 1 || g[0] != 1 {
		t.Fatalf("TileGrid(1) = %v", g)
	}
}

// frozenTileGrid is TileGrid as first written, on a set map: the
// reference the slice version is pinned against. Do not optimize it.
func frozenTileGrid(extent int) []int {
	set := map[int]bool{1: true, extent: true}
	for p := 2; p < extent; p *= 2 {
		set[p] = true
	}
	for d := 2; d*d <= extent; d++ {
		if extent%d == 0 {
			set[d] = true
			set[extent/d] = true
		}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// TestTileGridMatchesFrozenMapVersion pins the map-free TileGrid to the
// frozen map version at every extent 1..10^4 and at 10^3 seeded extents up
// to MaxInt32.
func TestTileGridMatchesFrozenMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	extents := make([]int, 0, 11_000)
	for e := 1; e <= 10_000; e++ {
		extents = append(extents, e)
	}
	for i := 0; i < 1000; i++ {
		extents = append(extents, 1+rng.Intn(math.MaxInt32))
	}
	for _, e := range extents {
		if got, want := TileGrid(e), frozenTileGrid(e); !slices.Equal(got, want) {
			t.Fatalf("TileGrid(%d) = %v, frozen version %v", e, got, want)
		}
	}
}

func TestCoarseMatchesExhaustiveOnDivisorFriendlyShapes(t *testing.T) {
	// Power-of-two shapes put the optimum on the coarse lattice.
	mm := op.MatMul{M: 16, K: 8, L: 16}
	for _, bs := range []int64{16, 64, 256, 1024} {
		full, err := ReferenceExhaustive(mm, bs)
		if err != nil {
			continue
		}
		coarse, err := datLattice(mm, bs)
		if err != nil {
			t.Fatalf("BS=%d: %v", bs, err)
		}
		// The coarse lattice can miss boundary tile values — the very gap
		// Fig. 9 shows between DAT points and the principle line — but must
		// stay in the same ballpark.
		if coarse.Access.Total > full.Access.Total*3/2 {
			t.Errorf("BS=%d: coarse %d much worse than full %d", bs, coarse.Access.Total, full.Access.Total)
		}
		if coarse.Evaluations >= full.Evaluations {
			t.Errorf("BS=%d: coarse used %d evals, full %d", bs, coarse.Evaluations, full.Evaluations)
		}
	}
}

func TestGeneticDeterministicForSeed(t *testing.T) {
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
	if a.Dataflow != b.Dataflow || a.Access.Total != b.Access.Total {
		t.Fatalf("nondeterministic GA: %v vs %v", a.Dataflow, b.Dataflow)
	}
}

func TestGeneticFeasibleAndNearOptimal(t *testing.T) {
	mm := op.MatMul{M: 16, K: 12, L: 8}
	for _, bs := range []int64{24, 64, 144, 400} {
		want, err := ReferenceExhaustive(mm, bs)
		if err != nil {
			continue
		}
		got, err := Genetic(mm, bs, GeneticOptions{Seed: 3})
		if err != nil {
			t.Fatalf("BS=%d: %v", bs, err)
		}
		if got.Access.Footprint > bs {
			t.Fatalf("BS=%d: infeasible GA result", bs)
		}
		// GA must come within 25% of the optimum on these small spaces.
		if got.Access.Total > want.Access.Total*5/4 {
			t.Errorf("BS=%d: GA %d, optimum %d", bs, got.Access.Total, want.Access.Total)
		}
	}
}

func TestGeneticErrors(t *testing.T) {
	if _, err := Genetic(op.MatMul{M: 0, K: 1, L: 1}, 100, GeneticOptions{}); err == nil {
		t.Error("invalid matmul accepted")
	}
	if _, err := Genetic(op.MatMul{M: 4, K: 4, L: 4}, 2, GeneticOptions{}); err == nil {
		t.Error("impossible buffer accepted")
	}
}

func TestOptimizeEntryPoint(t *testing.T) {
	mm := op.MatMul{M: 128, K: 64, L: 128}
	r, err := Optimize(mm, 4096, GeneticOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Access.Footprint > 4096 {
		t.Fatal("infeasible result")
	}
	if r.Access.Total <= 0 {
		t.Fatal("nonsensical MA")
	}
}

func TestGeneticOptionsDefaults(t *testing.T) {
	o := GeneticOptions{}.withDefaults()
	if o.Population != 64 || o.Generations != 60 || o.Seed != 1 || o.Elitism != 4 {
		t.Fatalf("defaults = %+v", o)
	}
	small := GeneticOptions{Population: 4, Elitism: 10}.withDefaults()
	if small.Elitism > small.Population/2 {
		t.Fatalf("elitism %d exceeds half of population %d", small.Elitism, small.Population)
	}
}

func TestOrdersUntouchedByClamp(t *testing.T) {
	// Regression guard: Clamp must preserve untiled extremes the GA jumps to.
	mm := op.MatMul{M: 7, K: 9, L: 5}
	ti := dataflow.Tiling{TM: 100, TK: 9, TL: 1}.Clamp(mm)
	if ti.TM != 7 || ti.TK != 9 || ti.TL != 1 {
		t.Fatalf("Clamp = %v", ti)
	}
}

func BenchmarkGenetic(b *testing.B) {
	mm := op.MatMul{M: 1024, K: 768, L: 768}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Genetic(mm, 512*1024, GeneticOptions{Seed: int64(i + 1), Population: 32, Generations: 20}); err != nil {
			b.Fatal(err)
		}
	}
}
