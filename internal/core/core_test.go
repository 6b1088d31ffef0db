package core

import (
	"errors"
	"math/rand"
	"testing"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

func TestClassifyRegimes(t *testing.T) {
	mm := op.MatMul{M: 100, K: 40, L: 80} // Dmin = 40, TensorMin = MK = 4000
	cases := []struct {
		bs   int64
		want Regime
	}{
		{3, RegimeTiny},
		{400, RegimeTiny},  // = Dmin²/4
		{401, RegimeSmall}, // just above
		{800, RegimeSmall}, // = Dmin²/2
		{801, RegimeMedium},
		{3200, RegimeMedium}, // TensorMin is B = KL = 3200
		{3201, RegimeLarge},
		{1 << 30, RegimeLarge},
	}
	for _, c := range cases {
		if got := Classify(mm, c.bs); got != c.want {
			t.Errorf("Classify(BS=%d) = %s, want %s", c.bs, got, c.want)
		}
	}
}

func TestCrossoverBand(t *testing.T) {
	mm := op.MatMul{M: 100, K: 40, L: 80}
	lo, hi := CrossoverBand(mm)
	if lo != 400 || hi != 800 {
		t.Fatalf("CrossoverBand = [%d, %d], want [400, 800]", lo, hi)
	}
}

// The paper's worked BERT example (§III-A4): A[1024,768] × B[768,768],
// BS = 512Ki elements → Two-NRA, K untiled, A and C non-redundant,
// MA(B) = 2KL — matching the DSE-searched optimum reported in the paper.
func TestOptimizePaperBERTExample(t *testing.T) {
	mm := op.MatMul{M: 1024, K: 768, L: 768}
	bs := int64(512 * 1024)
	res, err := Optimize(mm, bs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != RegimeMedium {
		t.Fatalf("regime = %s, want medium", res.Regime)
	}
	if res.Access.NRA != dataflow.TwoNRA {
		t.Fatalf("NRA = %s, want Two-NRA", res.Access.NRA)
	}
	if !res.Dataflow.Tiling.Untiled(dataflow.DimK, mm) {
		t.Fatalf("K should be untiled, tiling = %v", res.Dataflow.Tiling)
	}
	if !res.Access.NonRedundant(dataflow.TensorA, mm) || !res.Access.NonRedundant(dataflow.TensorC, mm) {
		t.Fatal("A and C should be non-redundant")
	}
	if got, want := res.Access.PerTensor[dataflow.TensorB], 2*mm.SizeB(); got != want {
		t.Fatalf("MA(B) = %d, want 2KL = %d", got, want)
	}
	if res.Access.Footprint > bs {
		t.Fatalf("footprint %d exceeds buffer %d", res.Access.Footprint, bs)
	}
	if res.Principle != 2 {
		t.Fatalf("winning principle = %d, want 2", res.Principle)
	}
}

func TestOptimizeTinyRegimePrefersSingleNRASmallestStationary(t *testing.T) {
	mm := op.MatMul{M: 512, K: 128, L: 256} // smallest tensor: A? A=64Ki B=32Ki C=128Ki → B
	bs := int64(128 * 128 / 4)              // exactly Dmin²/4 → tiny
	res, err := Optimize(mm, bs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != RegimeTiny {
		t.Fatalf("regime = %s", res.Regime)
	}
	if res.Access.NRA != dataflow.SingleNRA {
		t.Fatalf("NRA = %s, want Single-NRA", res.Access.NRA)
	}
	if st := res.Dataflow.Order.Stationary(); st != dataflow.TensorB {
		t.Fatalf("stationary = %s, want B (smallest tensor)", st)
	}
}

func TestOptimizeLargeRegimeReachesIdeal(t *testing.T) {
	mm := op.MatMul{M: 256, K: 64, L: 128}
	res, err := Optimize(mm, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != RegimeLarge {
		t.Fatalf("regime = %s", res.Regime)
	}
	if res.Access.NRA != dataflow.ThreeNRA {
		t.Fatalf("NRA = %s", res.Access.NRA)
	}
	if res.Access.Total != mm.IdealMA() {
		t.Fatalf("Total = %d, want ideal %d", res.Access.Total, mm.IdealMA())
	}
}

func TestOptimizeErrors(t *testing.T) {
	if _, err := Optimize(op.MatMul{M: 0, K: 1, L: 1}, 100); err == nil {
		t.Error("invalid matmul accepted")
	}
	if _, err := Optimize(op.MatMul{M: 4, K: 4, L: 4}, 2); err == nil {
		t.Error("impossible buffer accepted")
	}
	for _, mm := range overflowingOps() {
		if _, err := Optimize(mm, 1<<20); !errors.Is(err, errs.ErrInvalidOperator) {
			t.Errorf("%v: err = %v, want ErrInvalidOperator", mm, err)
		}
	}
}

// overflowingOps are shapes whose traffic can overflow int64 (3·M·K·L does).
func overflowingOps() []op.MatMul {
	return []op.MatMul{
		{Name: "cube21", M: 1 << 21, K: 1 << 21, L: 1 << 21},
		{Name: "cube24", M: 1 << 24, K: 1 << 24, L: 1 << 24},
		{Name: "near", M: 1572864, K: 1 << 21, L: 1 << 21},
	}
}

// The largest power-of-two cube whose traffic fits int64 still answers, at
// or above the communication lower bound.
func TestOptimizeLargestCube(t *testing.T) {
	mm := op.MatMul{M: 1 << 20, K: 1 << 20, L: 1 << 20}
	res, err := Optimize(mm, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Access.Total < mm.IdealMA() {
		t.Fatalf("Total = %d, below IdealMA %d", res.Access.Total, mm.IdealMA())
	}
}

func TestOptimizeMinimalBuffer(t *testing.T) {
	mm := op.MatMul{M: 8, K: 8, L: 8}
	res, err := Optimize(mm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Access.Footprint > 3 {
		t.Fatalf("footprint %d > 3", res.Access.Footprint)
	}
}

func TestSingleNRACandidateBalancedTiles(t *testing.T) {
	mm := op.MatMul{M: 1000, K: 1000, L: 1000}
	c, ok := SingleNRACandidate(mm, 1024, dataflow.TensorC)
	if !ok {
		t.Fatal("no candidate")
	}
	// T² + 2T ≤ 1024 → the balanced T = 31 is optimal; ceil-trip ties allow
	// other (T_M, T_L) pairs with the same total trips, so compare MA.
	ref := dataflow.Dataflow{Order: dataflow.OrderOS, Tiling: dataflow.Tiling{TM: 31, TK: 1, TL: 31}}
	if c.Dataflow.Tiling.TK != 1 {
		t.Fatalf("T_K = %d, want 1", c.Dataflow.Tiling.TK)
	}
	refMA := mustTotal(t, mm, ref)
	if c.Access.Total != refMA {
		t.Fatalf("MA = %d, want %d (balanced 31/31)", c.Access.Total, refMA)
	}
	if c.Access.Footprint > 1024 {
		t.Fatalf("footprint %d > 1024", c.Access.Footprint)
	}
	if c.Dataflow.Order.Stationary() != dataflow.TensorC {
		t.Fatal("stationary is not C")
	}
}

func TestSingleNRACandidateClampsToExtent(t *testing.T) {
	// M tiny: T_M clamps to 4 and the freed budget flows into T_L.
	mm := op.MatMul{M: 4, K: 1000, L: 1000}
	c, ok := SingleNRACandidate(mm, 1024, dataflow.TensorC)
	if !ok {
		t.Fatal("no candidate")
	}
	ti := c.Dataflow.Tiling
	if ti.TM != 4 {
		t.Fatalf("T_M = %d, want 4", ti.TM)
	}
	if ti.TL <= 31 {
		t.Fatalf("T_L = %d, should exceed the balanced 31 when T_M clamps", ti.TL)
	}
	if ti.Footprint() > 1024 {
		t.Fatalf("footprint %d > 1024", ti.Footprint())
	}
}

func TestTwoNRACandidateRejectsBadArgs(t *testing.T) {
	mm := op.MatMul{M: 64, K: 32, L: 48}
	if _, ok := TwoNRACandidate(mm, 1<<20, dataflow.DimK, dataflow.TensorC); ok {
		t.Error("output-redundant construction accepted")
	}
	if _, ok := TwoNRACandidate(mm, 1<<20, dataflow.DimM, dataflow.TensorB); ok {
		t.Error("redundant tensor without the untiled dim accepted")
	}
}

func TestTwoNRACandidateStructure(t *testing.T) {
	mm := op.MatMul{M: 1024, K: 768, L: 768}
	c, ok := TwoNRACandidate(mm, 512*1024, dataflow.DimK, dataflow.TensorB)
	if !ok {
		t.Fatal("no candidate")
	}
	ti := c.Dataflow.Tiling
	if ti.TK != 768 || ti.TL != 1 {
		t.Fatalf("tiling = %v, want T_K=768 T_L=1", ti)
	}
	// Exact Eq. 4 maximum: T_M(K+1) + K ≤ BS → T_M = 680.
	if ti.TM != 680 {
		t.Fatalf("T_M = %d, want 680", ti.TM)
	}
}

func TestThreeNRACandidateResidency(t *testing.T) {
	mm := op.MatMul{M: 64, K: 32, L: 48}
	c, ok := ThreeNRACandidate(mm, 4096, dataflow.TensorB)
	if !ok {
		t.Fatal("no candidate")
	}
	if c.Access.Total != mm.IdealMA() {
		t.Fatalf("Total = %d, want ideal %d", c.Access.Total, mm.IdealMA())
	}
	if !c.Dataflow.Tiling.Untiled(dataflow.DimK, mm) || !c.Dataflow.Tiling.Untiled(dataflow.DimL, mm) {
		t.Fatal("B's dims should be untiled")
	}
}

func TestThreeNRACandidateInfeasible(t *testing.T) {
	mm := op.MatMul{M: 64, K: 32, L: 48}
	if _, ok := ThreeNRACandidate(mm, 100, dataflow.TensorB); ok {
		t.Fatal("infeasible residency accepted")
	}
}

func TestCandidateSetCoversAllPrinciples(t *testing.T) {
	mm := op.MatMul{M: 64, K: 32, L: 48}
	cands := CandidateSet(mm, 1<<20)
	var p1, p2, p3 int
	for _, c := range cands {
		switch c.Principle {
		case 1:
			p1++
		case 2:
			p2++
		case 3:
			p3++
		}
		if c.Access.Footprint > 1<<20 {
			t.Errorf("candidate %q overflows buffer", c.Note)
		}
	}
	if p1 != 3 || p2 != 4 || p3 != 3 {
		t.Fatalf("candidate counts P1=%d P2=%d P3=%d, want 3/4/3", p1, p2, p3)
	}
}

// The headline claim: the principle-constructed dataflow achieves the global
// optimum found by exhaustive search over the entire tiling/scheduling
// space, across buffer sizes spanning all four regimes.
func TestPrinciplesMatchExhaustiveOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-validation is slow")
	}
	shapes := []op.MatMul{
		{M: 12, K: 12, L: 12},
		{M: 16, K: 8, L: 12},
		{M: 6, K: 20, L: 10},
		{M: 24, K: 6, L: 8},
		{M: 9, K: 9, L: 18},
	}
	for _, mm := range shapes {
		dmin := int64(mm.MinDim())
		buffers := []int64{
			3, 8,
			dmin * dmin / 4,
			dmin*dmin/4 + 1,
			dmin * dmin / 2,
			dmin*dmin/2 + 1,
			mm.MinTensor(),
			mm.MinTensor() + mm.MinTensor()/2,
			mm.IdealMA(),
		}
		for _, bs := range buffers {
			if bs < 3 {
				continue
			}
			want, err := search.ReferenceExhaustive(mm, bs)
			if err != nil {
				t.Fatalf("%v BS=%d: %v", mm, bs, err)
			}
			got, err := Optimize(mm, bs)
			if err != nil {
				t.Fatalf("%v BS=%d: %v", mm, bs, err)
			}
			if got.Access.Total != want.Access.Total {
				t.Errorf("%v BS=%d: principles %d (%s), exhaustive %d (%v)",
					mm, bs, got.Access.Total, got.Note, want.Access.Total, want.Dataflow)
			}
		}
	}
}

func TestPrinciplesMatchExhaustiveRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-validation is slow")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		mm := op.MatMul{M: rng.Intn(14) + 2, K: rng.Intn(14) + 2, L: rng.Intn(14) + 2}
		bs := int64(rng.Intn(int(mm.IdealMA()))) + 3
		want, err := search.ReferenceExhaustive(mm, bs)
		if err != nil {
			continue // buffer too small for any tiling
		}
		got, err := Optimize(mm, bs)
		if err != nil {
			t.Fatalf("%v BS=%d: exhaustive feasible but principles failed: %v", mm, bs, err)
		}
		if got.Access.Total != want.Access.Total {
			t.Errorf("%v BS=%d: principles %d (%s), exhaustive %d (%v)",
				mm, bs, got.Access.Total, got.Note, want.Access.Total, want.Dataflow)
		}
	}
}

// Monotonicity: more buffer never increases the optimized MA, and the result
// converges to the ideal lower bound.
func TestOptimizeMonotoneInBuffer(t *testing.T) {
	mm := op.MatMul{M: 128, K: 96, L: 64}
	prev := int64(-1)
	for bs := int64(16); bs <= mm.IdealMA()*2; bs *= 2 {
		res, err := Optimize(mm, bs)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.Access.Total > prev {
			t.Fatalf("BS=%d: MA %d worse than smaller buffer's %d", bs, res.Access.Total, prev)
		}
		if res.Access.Total < mm.IdealMA() {
			t.Fatalf("BS=%d: MA %d below the ideal lower bound %d", bs, res.Access.Total, mm.IdealMA())
		}
		prev = res.Access.Total
	}
	if prev != mm.IdealMA() {
		t.Fatalf("did not converge to ideal: %d vs %d", prev, mm.IdealMA())
	}
}

func mustTotal(t *testing.T, mm op.MatMul, df dataflow.Dataflow) int64 {
	t.Helper()
	a, err := cost.Evaluate(mm, df)
	if err != nil {
		t.Fatal(err)
	}
	return a.Total
}

func TestRegimeStringer(t *testing.T) {
	for _, r := range []Regime{RegimeTiny, RegimeSmall, RegimeMedium, RegimeLarge} {
		if r.String() == "" {
			t.Fatal("empty regime string")
		}
	}
}

func BenchmarkOptimize(b *testing.B) {
	mm := op.MatMul{M: 1024, K: 768, L: 768}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(mm, 512*1024); err != nil {
			b.Fatal(err)
		}
	}
}
