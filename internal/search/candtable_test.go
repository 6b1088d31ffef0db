package search

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/op"
)

// TestCandTableMatchesReferenceRandomized is the tentpole property: over
// randomized shapes (degenerate dims included) and buffers from infeasible
// through unconstrained, a full-grid table query is bit-identical to
// ReferenceExhaustive — same dataflow (canonical tie-break), same access
// breakdown — and its visit accounting preserves the engine invariant
// Evaluations + CacheHits == reference Evaluations.
func TestCandTableMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		mm := op.MatMul{
			Name: "rand",
			M:    rng.Intn(9) + 1,
			K:    rng.Intn(9) + 1,
			L:    rng.Intn(9) + 1,
		}
		tab, err := NewCandTable(mm, GridFull, nil)
		if err != nil {
			t.Fatalf("%v: build: %v", mm, err)
		}
		maxFP := mm.SizeA() + mm.SizeB() + mm.SizeC()
		for _, bs := range []int64{1, 2, 3, 5, 7, maxFP / 2, maxFP, maxFP * 2} {
			ref, refErr := ReferenceExhaustive(mm, bs)
			got, err := tab.Best(bs)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%v BS=%d: err=%v, reference err=%v", mm, bs, err, refErr)
			}
			if refErr != nil {
				continue
			}
			if got.Evaluations != 0 {
				t.Errorf("%v BS=%d: table reported %d Evaluations, want 0 (tables never invoke the cost model per query)", mm, bs, got.Evaluations)
			}
			checkEquivalent(t, "table", ref, got)
		}
	}
}

// TestCandTableCoarseMatchesReferenceRandomized mirrors the full-grid
// property over the TileGrid lattice against ReferenceCoarse, at shapes big
// enough that the coarse grid is a strict subset of the integer lattice.
func TestCandTableCoarseMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		mm := op.MatMul{
			Name: "rand",
			M:    rng.Intn(60) + 1,
			K:    rng.Intn(60) + 1,
			L:    rng.Intn(60) + 1,
		}
		tab, err := NewCandTable(mm, GridCoarse, nil)
		if err != nil {
			t.Fatalf("%v: build: %v", mm, err)
		}
		maxFP := mm.SizeA() + mm.SizeB() + mm.SizeC()
		for _, bs := range []int64{2, 5, 16, maxFP / 3, maxFP * 2} {
			ref, refErr := ReferenceCoarse(mm, bs)
			got, err := tab.Best(bs)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%v BS=%d: err=%v, reference err=%v", mm, bs, err, refErr)
			}
			if refErr != nil {
				continue
			}
			checkEquivalent(t, "table-coarse", ref, got)
		}
	}
}

// TestCandTableDegenerateDims sweeps prime and unit dimensions — where the
// tiling lattice collapses to a handful of points — across every distinct
// footprint threshold the table holds, so each plateau boundary is hit on
// both sides.
func TestCandTableDegenerateDims(t *testing.T) {
	shapes := []op.MatMul{
		{Name: "unit", M: 1, K: 1, L: 1},
		{Name: "row", M: 1, K: 13, L: 1},
		{Name: "primes", M: 7, K: 11, L: 13},
		{Name: "mixed", M: 1, K: 17, L: 4},
	}
	for _, mm := range shapes {
		tab, err := NewCandTable(mm, GridFull, nil)
		if err != nil {
			t.Fatalf("%v: build: %v", mm, err)
		}
		buffers := []int64{2}
		for _, st := range tab.steps {
			buffers = append(buffers, st.foot-1, st.foot, st.foot+1)
		}
		for _, bs := range buffers {
			ref, refErr := ReferenceExhaustive(mm, bs)
			got, err := tab.Best(bs)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%v BS=%d: err=%v, reference err=%v", mm, bs, err, refErr)
			}
			if refErr != nil {
				continue
			}
			checkEquivalent(t, "table-degenerate", ref, got)
		}
	}
}

// TestCandTableInfeasibleErrors pins the error classes: sub-minimal buffers
// report ErrBufferTooSmall (mirroring the scan engines), and feasibility
// starts exactly at footprint 3 (the 1×1×1 tiling).
func TestCandTableInfeasibleErrors(t *testing.T) {
	tab, err := NewCandTable(op.MatMul{Name: "t", M: 4, K: 4, L: 4}, GridFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Best(2); !errors.Is(err, errs.ErrBufferTooSmall) {
		t.Fatalf("Best(2) err = %v, want ErrBufferTooSmall", err)
	}
	if _, err := tab.BestStationary(dataflow.OS, 1); !errors.Is(err, errs.ErrBufferTooSmall) {
		t.Fatalf("BestStationary(OS, 1) err = %v, want ErrBufferTooSmall", err)
	}
	if _, err := tab.Best(3); err != nil {
		t.Fatalf("Best(3) err = %v, want feasible 1×1 tiles", err)
	}
}

// TestCandTableStationaryClasses checks the per-rotation-class step tables
// against the global one: the best class answer must equal the global
// optimum (with the same canonical tie-break), every class answer must
// actually keep its tensor stationary, and the class visit counts must
// partition the global visit count.
func TestCandTableStationaryClasses(t *testing.T) {
	mm := op.MatMul{Name: "cls", M: 8, K: 6, L: 10}
	tab, err := NewCandTable(mm, GridFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []dataflow.StationaryKind{dataflow.OS, dataflow.WS, dataflow.IS}
	maxFP := mm.SizeA() + mm.SizeB() + mm.SizeC()
	for _, bs := range []int64{3, 7, 20, maxFP / 2, maxFP * 2} {
		global, err := tab.Best(bs)
		if err != nil {
			t.Fatalf("BS=%d: %v", bs, err)
		}
		var classVisits int64
		best := Result{}
		found := false
		for _, k := range kinds {
			r, err := tab.BestStationary(k, bs)
			if err != nil {
				t.Fatalf("BS=%d %v: %v", bs, k, err)
			}
			if got := r.Dataflow.Order.Stationary().Kind(); got != k {
				t.Errorf("BS=%d: class %v returned a %v-stationary dataflow %v", bs, k, got, r.Dataflow)
			}
			classVisits += r.CacheHits
			if !found || r.Access.Total < best.Access.Total {
				best, found = r, true
			}
		}
		if classVisits != global.CacheHits {
			t.Errorf("BS=%d: class visits %d do not partition global visits %d", bs, classVisits, global.CacheHits)
		}
		if best.Access.Total != global.Access.Total {
			t.Errorf("BS=%d: best class total %d != global total %d", bs, best.Access.Total, global.Access.Total)
		}
		if k := global.Dataflow.Order.Stationary().Kind(); k >= 0 {
			r, err := tab.BestStationary(k, bs)
			if err != nil {
				t.Fatalf("BS=%d: %v", bs, err)
			}
			if r.Dataflow != global.Dataflow || r.Access != global.Access {
				t.Errorf("BS=%d: global optimum's class query %v != global %v", bs, r.Dataflow, global.Dataflow)
			}
		}
	}
	if _, err := tab.BestStationary(dataflow.StationaryKind(9), 64); !errors.Is(err, errs.ErrInvalidDataflow) {
		t.Fatalf("invalid kind err = %v, want ErrInvalidDataflow", err)
	}
}

// TestCandTableIgnoresOperatorName asserts tables for identically shaped
// operators under different names answer identically — cost depends only
// on the dimensions, which is what lets the service share one table per
// shape.
func TestCandTableIgnoresOperatorName(t *testing.T) {
	a, err := NewCandTable(op.MatMul{Name: "first", M: 10, K: 8, L: 6}, GridFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCandTable(op.MatMul{Name: "second", M: 10, K: 8, L: 6}, GridFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Candidates() != b.Candidates() {
		t.Fatalf("candidate counts differ: %d vs %d", a.Candidates(), b.Candidates())
	}
	r1, err1 := a.Best(96)
	r2, err2 := b.Best(96)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Dataflow != r2.Dataflow || r1.Access != r2.Access {
		t.Fatalf("tables for identically shaped ops disagree: %v vs %v", r1, r2)
	}
}

// TestCandTableRefusesOversizedGrid pins the admission cap: shapes whose
// full lattice exceeds MaxTableCandidates are refused at construction so
// callers fall back to scans instead of allocating gigabytes.
func TestCandTableRefusesOversizedGrid(t *testing.T) {
	mm := op.MatMul{Name: "huge", M: 224, K: 224, L: 224}
	if n := TableCandidates(mm, GridFull); n <= MaxTableCandidates {
		t.Fatalf("test shape too small: %d candidates", n)
	}
	if _, err := NewCandTable(mm, GridFull, nil); err == nil {
		t.Fatal("oversized build succeeded, want refusal")
	}
	// The coarse lattice of the same shape is tiny and must still build.
	if _, err := NewCandTable(mm, GridCoarse, nil); err != nil {
		t.Fatalf("coarse build of large shape: %v", err)
	}
}

// TestCandTableInvalidOp checks constructor validation.
func TestCandTableInvalidOp(t *testing.T) {
	if _, err := NewCandTable(op.MatMul{Name: "bad", M: 0, K: 4, L: 4}, GridFull, nil); err == nil {
		t.Fatal("invalid operator accepted")
	}
	if TableCandidates(op.MatMul{M: -1, K: 2, L: 2}, GridFull) != 0 {
		t.Fatal("TableCandidates of invalid op should be 0")
	}
}

// TestCandTableBestZeroAllocs pins the query path's allocation budget at
// zero — the property that makes tables safe on the serving hot path.
func TestCandTableBestZeroAllocs(t *testing.T) {
	tab, err := NewCandTable(op.MatMul{Name: "alloc", M: 12, K: 10, L: 8}, GridFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := tab.Best(512); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Best allocates %v objects per query, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := tab.BestStationary(dataflow.WS, 512); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("BestStationary allocates %v objects per query, want 0", n)
	}
}

// TestOptimizeTableMatchesOptimize is the engine-level identity: the
// table-backed Optimize — table lookup for the lattice stage, unchanged
// genetic polish — must reproduce Optimize bit for bit, including the
// combined Evaluations+CacheHits accounting and both selection branches
// (lattice stage kept vs. genetic polish winning).
func TestOptimizeTableMatchesOptimize(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		mm := op.MatMul{
			Name: "rand",
			M:    rng.Intn(40) + 1,
			K:    rng.Intn(40) + 1,
			L:    rng.Intn(40) + 1,
		}
		opts := GeneticOptions{Seed: int64(trial)}
		tab, err := NewCandTable(mm, GridCoarse, nil)
		if err != nil {
			t.Fatalf("%v: build: %v", mm, err)
		}
		maxFP := mm.SizeA() + mm.SizeB() + mm.SizeC()
		for _, bs := range []int64{2, 16, maxFP / 2, maxFP * 2} {
			want, wantErr := Optimize(mm, bs, opts)
			got, err := OptimizeTableCtx(context.Background(), mm, bs, opts, tab, nil)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%v BS=%d: err=%v, optimize err=%v", mm, bs, err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if got.Dataflow != want.Dataflow || got.Access != want.Access {
				t.Errorf("%v BS=%d: table-backed %v %+v, optimize %v %+v", mm, bs, got.Dataflow, got.Access, want.Dataflow, want.Access)
			}
			if got.Evaluations+got.CacheHits != want.Evaluations+want.CacheHits {
				t.Errorf("%v BS=%d: visits %d+%d, optimize %d+%d", mm, bs, got.Evaluations, got.CacheHits, want.Evaluations, want.CacheHits)
			}
		}
	}
}

// TestOptimizeTableLargeShapeSkipsLattice checks the above-limit branch: a
// shape whose coarse lattice exceeds CoarseLatticeLimit must run the
// genetic engine only — table optional — exactly like Optimize.
func TestOptimizeTableLargeShapeSkipsLattice(t *testing.T) {
	mm := op.MatMul{Name: "big", M: 1260, K: 1260, L: 1260}
	if CoarseLattice(mm) <= CoarseLatticeLimit {
		t.Skipf("shape no longer exceeds the lattice limit (%d)", CoarseLattice(mm))
	}
	opts := GeneticOptions{Seed: 5, Generations: 6, Population: 16}
	want, wantErr := Optimize(mm, 1<<16, opts)
	got, err := OptimizeTable(mm, 1<<16, opts, nil)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("err=%v, optimize err=%v", err, wantErr)
	}
	if wantErr == nil && (got.Dataflow != want.Dataflow || got.Access != want.Access || got.Method != want.Method) {
		t.Fatalf("table-backed %+v, optimize %+v", got, want)
	}
}

// TestOptimizeTableRejectsMismatchedTable pins the guard rails: a missing
// or wrong-shape/wrong-grid table is an internal error, not a silent wrong
// answer.
func TestOptimizeTableRejectsMismatchedTable(t *testing.T) {
	mm := op.MatMul{Name: "t", M: 8, K: 8, L: 8}
	if _, err := OptimizeTable(mm, 64, GeneticOptions{Seed: 1}, nil); !errors.Is(err, errs.ErrInternal) {
		t.Fatalf("nil table err = %v, want ErrInternal", err)
	}
	wrong, err := NewCandTable(op.MatMul{Name: "w", M: 9, K: 8, L: 8}, GridCoarse, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OptimizeTable(mm, 64, GeneticOptions{Seed: 1}, wrong); !errors.Is(err, errs.ErrInternal) {
		t.Fatalf("wrong-shape table err = %v, want ErrInternal", err)
	}
	full, err := NewCandTable(mm, GridFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OptimizeTable(mm, 64, GeneticOptions{Seed: 1}, full); !errors.Is(err, errs.ErrInternal) {
		t.Fatalf("wrong-grid table err = %v, want ErrInternal", err)
	}
}
