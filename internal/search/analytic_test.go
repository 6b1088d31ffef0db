package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/faultinject"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// analyticShapes are the exact-property workloads: small squares the frozen
// full-space reference can sweep, plus the decode degenerates from
// equivalence_test.go — the M=1 GEMV, the tiny-K MoE expert and the small-L
// GQA head that exercise the unit-extent cell skipping.
var analyticShapes = []op.MatMul{
	{Name: "sq", M: 12, K: 10, L: 14},
	{Name: "wide", M: 8, K: 30, L: 22},
	{Name: "gemv", M: 1, K: 48, L: 40},
	{Name: "moe-tinyk", M: 24, K: 2, L: 56},
	{Name: "gqa-smalll", M: 40, K: 36, L: 3},
}

// analyticBuffers spans the regimes for one shape: the 1×1 floor, a cramped
// prime, a quarter of the full-residency footprint, and a slack buffer where
// the untiled optimum is feasible.
func analyticBuffers(mm op.MatMul) []int64 {
	maxFP := int64(mm.M)*int64(mm.K) + int64(mm.K)*int64(mm.L) + int64(mm.M)*int64(mm.L)
	return []int64{3, 17, maxFP / 4, maxFP * 2}
}

// TestAnalyticExactOnSmallShapes is the tentpole's exact property: on every
// shape the full-space reference can enumerate, the analytic engine's Total
// must equal ReferenceExhaustive's global optimum bit for bit (every
// boundary candidate is a true lattice point priced by the same kernel), and
// in particular never lose to the GA.
func TestAnalyticExactOnSmallShapes(t *testing.T) {
	for _, mm := range analyticShapes {
		for _, bs := range analyticBuffers(mm) {
			if bs < 3 {
				continue
			}
			want, err := ReferenceExhaustive(mm, bs)
			if err != nil {
				t.Fatalf("%v BS=%d: reference: %v", mm, bs, err)
			}
			got, err := OptimizeAnalytic(mm, bs)
			if err != nil {
				t.Fatalf("%v BS=%d: analytic: %v", mm, bs, err)
			}
			if got.Access.Total != want.Access.Total {
				t.Errorf("%v BS=%d: analytic %d != reference optimum %d",
					mm, bs, got.Access.Total, want.Access.Total)
			}
			if got.Method != "analytic" || got.CacheHits != 0 {
				t.Errorf("%v BS=%d: method %q, cache hits %d", mm, bs, got.Method, got.CacheHits)
			}
			if got.Access.Footprint > bs {
				t.Errorf("%v BS=%d: infeasible answer, footprint %d", mm, bs, got.Access.Footprint)
			}
			ga, err := Genetic(mm, bs, GeneticOptions{})
			if err != nil {
				t.Fatalf("%v BS=%d: genetic: %v", mm, bs, err)
			}
			if got.Access.Total > ga.Access.Total {
				t.Errorf("%v BS=%d: analytic %d worse than GA %d",
					mm, bs, got.Access.Total, ga.Access.Total)
			}
			if got.Evaluations*10 > ga.Evaluations {
				t.Errorf("%v BS=%d: analytic evals %d not 10x below GA's %d",
					mm, bs, got.Evaluations, ga.Evaluations)
			}
		}
	}
}

// TestAnalyticExactOnRandomShapes is the bounded property run at ε=0: across
// randomized shapes and buffers small enough for the unpruned full-space
// reference, the analytic Total matches its optimum exactly.
func TestAnalyticExactOnRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		mm := op.MatMul{
			Name: "rand",
			M:    rng.Intn(28) + 1,
			K:    rng.Intn(28) + 1,
			L:    rng.Intn(28) + 1,
		}
		maxFP := int64(mm.M)*int64(mm.K) + int64(mm.K)*int64(mm.L) + int64(mm.M)*int64(mm.L)
		bs := 3 + rng.Int63n(maxFP+32)
		want, err := ReferenceExhaustive(mm, bs)
		if err != nil {
			t.Fatalf("%v BS=%d: reference: %v", mm, bs, err)
		}
		got, err := OptimizeAnalytic(mm, bs)
		if err != nil {
			t.Fatalf("%v BS=%d: analytic: %v", mm, bs, err)
		}
		if got.Access.Total != want.Access.Total {
			t.Errorf("%v BS=%d: analytic %d != reference optimum %d",
				mm, bs, got.Access.Total, want.Access.Total)
		}
	}
}

// TestAnalyticDeterministic pins the no-randomness claim: repeated runs from
// one compiled engine and from fresh engines return identical results —
// dataflow, access, and evaluation count.
func TestAnalyticDeterministic(t *testing.T) {
	mm := op.MatMul{Name: "det", M: 96, K: 48, L: 64}
	eng, err := NewAnalytic(mm)
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.OptimizeCtx(context.Background(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := eng.OptimizeCtx(context.Background(), 2048)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("rerun %d diverged: %+v vs %+v", i, again, first)
		}
	}
	fresh, err := OptimizeAnalytic(mm, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != first {
		t.Fatalf("fresh engine diverged: %+v vs %+v", fresh, first)
	}
}

// TestAnalyticErrorContract pins error parity with the reference scans:
// invalid operators are rejected at construction, a sub-3 buffer is
// ErrBufferTooSmall, and any buffer ≥ 3 is feasible (the 1×1×1 seed).
func TestAnalyticErrorContract(t *testing.T) {
	if _, err := OptimizeAnalytic(op.MatMul{Name: "bad", M: 0, K: 4, L: 4}, 64); err == nil {
		t.Error("invalid operator accepted")
	}
	// Shapes whose traffic can overflow int64 (3·M·K·L does) are invalid
	// rather than answered with a wrapped total.
	for _, mm := range []op.MatMul{
		{Name: "cube21", M: 1 << 21, K: 1 << 21, L: 1 << 21},
		{Name: "cube24", M: 1 << 24, K: 1 << 24, L: 1 << 24},
		{Name: "near", M: 1572864, K: 1 << 21, L: 1 << 21},
	} {
		if _, err := OptimizeAnalytic(mm, 1<<20); !errors.Is(err, errs.ErrInvalidOperator) {
			t.Errorf("%v: err = %v, want ErrInvalidOperator", mm, err)
		}
	}
	mm := op.MatMul{Name: "tiny", M: 5, K: 6, L: 7}
	if _, err := OptimizeAnalytic(mm, 2); !errors.Is(err, errs.ErrBufferTooSmall) {
		t.Errorf("BS=2: %v, want ErrBufferTooSmall", err)
	}
	r, err := OptimizeAnalytic(mm, 3)
	if err != nil {
		t.Fatalf("BS=3 must admit the 1×1 tiling: %v", err)
	}
	if r.Access.Footprint != 3 {
		t.Errorf("BS=3 footprint = %d, want 3", r.Access.Footprint)
	}
	ref, err := ReferenceExhaustive(mm, 3)
	if err != nil {
		t.Fatalf("reference at BS=3: %v", err)
	}
	if r.Access.Total != ref.Access.Total {
		t.Errorf("BS=3: analytic %d != reference %d", r.Access.Total, ref.Access.Total)
	}
}

// TestAnalyticCancellation: a pre-canceled context must surface ctx.Err()
// instead of a result.
func TestAnalyticCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := OptimizeAnalyticCtx(ctx, op.MatMul{Name: "c", M: 512, K: 512, L: 512}, 1<<20)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
}

// TestAnalyticSolePolishAboveLimit pins the engine selection: above
// CoarseLatticeLimit DAT (Optimize) runs the GA as its sole stage, and the
// exact analytic engine is never worse than it.
func TestAnalyticSolePolishAboveLimit(t *testing.T) {
	mm := op.MatMul{Name: "huge", M: 1260, K: 1260, L: 1260}
	if CoarseLattice(mm) <= CoarseLatticeLimit {
		t.Fatalf("shape %v unexpectedly inside the lattice limit", mm)
	}
	g, err := Optimize(mm, 1<<20, GeneticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Method != "genetic" {
		t.Errorf("DAT method above the lattice limit = %q, want genetic", g.Method)
	}
	r, err := OptimizeAnalytic(mm, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Access.Total > g.Access.Total {
		t.Errorf("analytic %d worse than GA %d above the lattice limit",
			r.Access.Total, g.Access.Total)
	}
}

// prunedReference is ReferenceExhaustive restricted to the tilings that fit
// the buffer: it visits candidates in the reference's order-major order and
// keeps its first minimum, but each loop stops at the first tile that
// overflows, and it prices through the compiled kernel's scalar entry. At
// small buffers it stays cheap on extents where the frozen reference would
// visit 10^14 candidates.
func prunedReference(mm op.MatMul, bs int64) (Result, error) {
	orders := dataflow.AllOrders()
	kern, err := cost.Compile(mm, orders)
	if err != nil {
		return Result{}, err
	}
	var (
		best  cost.Access
		key   candKey
		found bool
	)
	for oi := range orders {
		for tm := 1; tm <= mm.M && tileFootprint(tm, 1, 1) <= bs; tm++ {
			for tk := 1; tk <= mm.K && tileFootprint(tm, tk, 1) <= bs; tk++ {
				for tl := 1; tl <= mm.L && tileFootprint(tm, tk, tl) <= bs; tl++ {
					a := kern.Eval(uint8(oi), int64(tm), int64(tk), int64(tl))
					if !found || a.Total < best.Total {
						found, best, key = true, a, candKey{oi, tm, tk, tl}
					}
				}
			}
		}
	}
	if !found {
		return Result{}, fmt.Errorf("no feasible dataflow for %v in buffer %d: %w", mm, bs, errs.ErrInfeasible)
	}
	df := dataflow.Must(mm, orders[key.order], dataflow.MustTiling(mm, key.tm, key.tk, key.tl))
	return Result{Dataflow: df, Access: best}, nil
}

// TestAnalyticExactOnLargeExtents holds the engine to the optimum where
// every extent exceeds 4096, so each two-free-tile cell walks hundreds of
// plateaus: on random shapes at small buffers the analytic answer must
// equal prunedReference's, which is first checked against
// ReferenceExhaustive on the small analytic shapes. Two shapes are also
// pinned to their optima.
func TestAnalyticExactOnLargeExtents(t *testing.T) {
	for _, mm := range analyticShapes {
		for _, bs := range analyticBuffers(mm) {
			want, err := ReferenceExhaustive(mm, bs)
			if err != nil {
				t.Fatalf("%v BS=%d: reference: %v", mm, bs, err)
			}
			got, err := prunedReference(mm, bs)
			if err != nil {
				t.Fatalf("%v BS=%d: pruned reference: %v", mm, bs, err)
			}
			checkSameAnswer(t, "pruned-reference", want, got)
		}
	}
	for _, tc := range []struct {
		mm   op.MatMul
		bs   int64
		want int64
	}{
		{op.MatMul{Name: "pin-bs10", M: 58253, K: 55134, L: 57472}, 10, 184_587_192_340_992},
		{op.MatMul{Name: "pin-bs28", M: 64619, K: 53388, L: 31126}, 28, 53_693_281_268_448},
	} {
		got, err := OptimizeAnalytic(tc.mm, tc.bs)
		if err != nil {
			t.Fatalf("%v BS=%d: %v", tc.mm, tc.bs, err)
		}
		if got.Access.Total != tc.want {
			t.Errorf("%v BS=%d: analytic %d, optimum %d", tc.mm, tc.bs, got.Access.Total, tc.want)
		}
	}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		mm := op.MatMul{
			Name: "large",
			M:    4097 + rng.Intn(65535-4097+1),
			K:    4097 + rng.Intn(65535-4097+1),
			L:    4097 + rng.Intn(65535-4097+1),
		}
		bs := 3 + rng.Int63n(598)
		want, err := prunedReference(mm, bs)
		if err != nil {
			t.Fatalf("%v BS=%d: pruned reference: %v", mm, bs, err)
		}
		got, err := OptimizeAnalytic(mm, bs)
		if err != nil {
			t.Fatalf("%v BS=%d: analytic: %v", mm, bs, err)
		}
		if got.Access.Total != want.Access.Total {
			t.Errorf("%v BS=%d: analytic %d != optimum %d", mm, bs, got.Access.Total, want.Access.Total)
		}
	}
}

// TestInjectedPanicContainedAnalytic proves the analytic engine's
// panic-containment boundary at its own site, and that results are
// unchanged once the fault window closes (mirroring
// TestResultsUnchangedAfterFaultWindow for the shared SiteEval).
func TestInjectedPanicContainedAnalytic(t *testing.T) {
	want, err := OptimizeAnalytic(faultOp, 2048)
	if err != nil {
		t.Fatal(err)
	}
	in := armEval(t, faultinject.Plan{Site: SiteAnalytic, Mode: faultinject.ModeError, Offset: 10, Times: 1})
	_, err = OptimizeAnalytic(faultOp, 2048)
	if err == nil {
		t.Fatal("analytic engine swallowed the injected fault")
	}
	if !errors.Is(err, errs.ErrInternal) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("contained fault lost a sentinel: %v", err)
	}
	if in.Fires(SiteAnalytic) != 1 {
		t.Fatalf("fires = %d, want 1", in.Fires(SiteAnalytic))
	}
	// The Times-capped plan is spent; the still-armed injector must not
	// perturb the rerun.
	got, err := OptimizeAnalytic(faultOp, 2048)
	if err != nil {
		t.Fatalf("post-window run failed: %v", err)
	}
	if got != want {
		t.Fatalf("post-window result diverged: %+v vs %+v", got, want)
	}
}

// FuzzAnalyticOptimum fuzzes the exact property on both lattices: for any
// small shape and buffer, the full-lattice walk must agree with
// ReferenceExhaustive and the coarse walk with ReferenceCoarse on the error
// class, the Dataflow (tie-winner included) and the full Access. The
// coarse walk draws extents up to 256, where the TileGrid lattice is far
// sparser than the full one.
func FuzzAnalyticOptimum(f *testing.F) {
	f.Add(uint8(12), uint8(10), uint8(14), uint16(256))
	f.Add(uint8(1), uint8(48), uint8(40), uint16(17))
	f.Add(uint8(24), uint8(2), uint8(56), uint16(3))
	f.Add(uint8(5), uint8(6), uint8(7), uint16(2))
	f.Fuzz(func(t *testing.T, m, k, l uint8, buf uint16) {
		bs := int64(buf)
		full := op.MatMul{Name: "fuzz", M: int(m%12) + 1, K: int(k%12) + 1, L: int(l%12) + 1}
		coarse := op.MatMul{Name: "fuzz", M: int(m) + 1, K: int(k) + 1, L: int(l) + 1}
		for _, tc := range []struct {
			mm  op.MatMul
			g   Grid
			ref func(op.MatMul, int64) (Result, error)
		}{
			{full, GridFull, ReferenceExhaustive},
			{coarse, GridCoarse, ReferenceCoarse},
		} {
			want, werr := tc.ref(tc.mm, bs)
			got, gerr := WalkCtx(context.Background(), tc.mm, bs, tc.g)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%v BS=%d %s: error mismatch: reference %v, walk %v", tc.mm, bs, tc.g, werr, gerr)
			}
			if werr != nil {
				if !errors.Is(gerr, errs.ErrBufferTooSmall) {
					t.Fatalf("%v BS=%d %s: %v, want ErrBufferTooSmall", tc.mm, bs, tc.g, gerr)
				}
				continue
			}
			if got.Dataflow != want.Dataflow || got.Access != want.Access {
				t.Fatalf("%v BS=%d %s: walk %v %+v, reference %v %+v",
					tc.mm, bs, tc.g, got.Dataflow, got.Access, want.Dataflow, want.Access)
			}
		}
	})
}

// TestAnalyticSteadyStateZeroAlloc pins the hot path: after construction,
// OptimizeCtx allocates nothing per call (the accumulator and cancel check
// are reused in place, and candidates are priced one at a time).
func TestAnalyticSteadyStateZeroAlloc(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checks compiled in: assertions allocate")
	}
	eng, err := NewAnalytic(op.MatMul{Name: "alloc", M: 1024, K: 768, L: 768})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.OptimizeCtx(ctx, 32<<10); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := eng.OptimizeCtx(ctx, 32<<10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state OptimizeCtx allocates %.1f objects/run, want 0", allocs)
	}
}

// BenchmarkAnalyticPolish times the steady-state engine on the Fig. 9
// projection shape, reusing one compiled Analytic across calls.
func BenchmarkAnalyticPolish(b *testing.B) {
	eng, err := NewAnalytic(op.MatMul{Name: "proj", M: 1024, K: 768, L: 768})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.OptimizeCtx(ctx, 32<<10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticLLM is one OptimizeAnalytic per Fig. 9 buffer (32 Ki–32 Mi
// elements) on the LLaMA2 fc1 shape, as /v1/search auto serves it: every
// extent is at least 4096, so each two-free-tile cell walks hundreds of
// plateaus.
func BenchmarkAnalyticLLM(b *testing.B) {
	mm := op.MatMul{Name: "fc1", M: 262144, K: 4096, L: 11008}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for bs := int64(32 << 10); bs <= 32<<20; bs *= 2 {
			if _, err := OptimizeAnalytic(mm, bs); err != nil {
				b.Fatal(err)
			}
		}
	}
}
