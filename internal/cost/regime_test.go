package cost

import (
	"math/rand"
	"testing"

	"fusecu/internal/dataflow"
	"fusecu/internal/op"
)

// TestRegimeMatchesEvalOne pins the affine cell descriptor against the batch
// kernel itself: for every order and every tiling, classifying the tiling
// into its cell (which trips exceed one) and applying Regime's base +
// coef·trips form must reproduce the evaluated Total bit for bit. This is
// the contract the analytic optimizer's per-cell closed forms stand on.
func TestRegimeMatchesEvalOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []op.MatMul{
		{Name: "sq", M: 12, K: 10, L: 14},
		{Name: "gemv", M: 1, K: 48, L: 40},
		{Name: "moe-tinyk", M: 24, K: 2, L: 56},
		{Name: "gqa-smalll", M: 40, K: 36, L: 3},
	}
	for trial := 0; trial < 4; trial++ {
		shapes = append(shapes, op.MatMul{
			Name: "rand",
			M:    rng.Intn(30) + 1,
			K:    rng.Intn(30) + 1,
			L:    rng.Intn(30) + 1,
		})
	}
	orders := dataflow.AllOrders()
	for _, mm := range shapes {
		kern, err := NewBatchEval(mm, orders)
		if err != nil {
			t.Fatalf("%v: %v", mm, err)
		}
		for probe := 0; probe < 200; probe++ {
			ti := dataflow.MustTiling(mm, rng.Intn(mm.M)+1, rng.Intn(mm.K)+1, rng.Intn(mm.L)+1)
			trips := [3]int64{
				int64((mm.M + ti.TM - 1) / ti.TM),
				int64((mm.K + ti.TK - 1) / ti.TK),
				int64((mm.L + ti.TL - 1) / ti.TL),
			}
			multi := [3]bool{trips[0] > 1, trips[1] > 1, trips[2] > 1}
			for oi := range orders {
				base, coef := kern.Regime(uint8(oi), multi)
				affine := base + coef[0]*trips[0] + coef[1]*trips[1] + coef[2]*trips[2]
				got := kern.Eval(uint8(oi), int64(ti.TM), int64(ti.TK), int64(ti.TL))
				if affine != got.Total {
					t.Fatalf("%v order %d tiling %v: affine %d (base %d coef %v trips %v) != evalOne %d",
						mm, oi, ti, affine, base, coef, trips, got.Total)
				}
			}
		}
	}
}

// TestRegimeInnermostCoefficientZero pins the structural property the
// analytic optimizer's two-variable reduction relies on: the innermost dim's
// coefficient is zero in every cell (its tensor's inner dim list is empty),
// so no cell ever has three free positive-coefficient trip counts.
func TestRegimeInnermostCoefficientZero(t *testing.T) {
	mm := op.MatMul{Name: "p", M: 8, K: 9, L: 10}
	orders := dataflow.AllOrders()
	kern, err := NewBatchEval(mm, orders)
	if err != nil {
		t.Fatal(err)
	}
	slot := map[dataflow.Dim]int{dataflow.DimM: 0, dataflow.DimK: 1, dataflow.DimL: 2}
	for oi, o := range orders {
		inner := slot[o[len(o)-1]]
		for mask := 0; mask < 8; mask++ {
			multi := [3]bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
			_, coef := kern.Regime(uint8(oi), multi)
			if coef[inner] != 0 {
				t.Fatalf("order %v mask %03b: innermost slot %d has coefficient %d", o, mask, inner, coef[inner])
			}
			free := 0
			for d := 0; d < 3; d++ {
				if multi[d] && coef[d] > 0 {
					free++
				}
			}
			if free > 2 {
				t.Fatalf("order %v mask %03b: %d free positive coefficients", o, mask, free)
			}
		}
	}
}
