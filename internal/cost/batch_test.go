package cost

import (
	"errors"
	"math"
	"testing"

	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// batchShapes covers square-ish Table-II style operators plus the skewed
// decode-style shapes (M=1 GEMV, tiny-K, small-L) and full degenerates the
// block path must stay exact on.
var batchShapes = []op.MatMul{
	{Name: "proj", M: 256, K: 192, L: 192},
	{Name: "qkt", M: 256, K: 32, L: 256},
	{Name: "ragged", M: 7, K: 13, L: 31},
	{Name: "gemv", M: 1, K: 4096, L: 4096},
	{Name: "moe-tinyk", M: 64, K: 2, L: 512},
	{Name: "gqa-smalll", M: 512, K: 128, L: 3},
	{Name: "colvec", M: 4096, K: 4096, L: 1},
	{Name: "dot", M: 1, K: 4096, L: 1},
	{Name: "scalar", M: 1, K: 1, L: 1},
}

// tileLattice returns a small divisor-ish lattice over [1, ext] including
// both endpoints and ragged (non-dividing) tiles.
func tileLattice(ext int) []int {
	seen := map[int]bool{}
	var out []int
	add := func(v int) {
		if v >= 1 && v <= ext && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for v := 1; v <= ext; v *= 2 {
		add(v)
		add(v + 1)
	}
	add(ext)
	add(ext - 1)
	add(ext/3 + 1)
	return out
}

// TestBatchEvalMatchesEvaluate pins bit-identity of the batch kernel against
// the scalar Evaluate across every shape, order, and a ragged tile lattice —
// every Access field must match exactly.
func TestBatchEvalMatchesEvaluate(t *testing.T) {
	orders := dataflow.AllOrders()
	for _, mm := range batchShapes {
		kern, err := NewBatchEval(mm, orders)
		if err != nil {
			t.Fatalf("NewBatchEval(%v): %v", mm, err)
		}
		blk := NewBlock(64)
		var want []Access
		flush := func() {
			t.Helper()
			kern.EvalBlock(blk)
			for i := range want {
				if blk.Out[i] != want[i] {
					t.Fatalf("%v candidate %d (oi=%d tm=%d tk=%d tl=%d): batch %+v, Evaluate %+v",
						mm, i, blk.OI[i], blk.TM[i], blk.TK[i], blk.TL[i], blk.Out[i], want[i])
				}
			}
			blk.Reset()
			want = want[:0]
		}
		for oi, o := range orders {
			for _, tm := range tileLattice(mm.M) {
				for _, tk := range tileLattice(mm.K) {
					for _, tl := range tileLattice(mm.L) {
						df := dataflow.Must(mm, o, dataflow.MustTiling(mm, tm, tk, tl))
						if blk.Full() {
							flush()
						}
						blk.Push(uint8(oi), int32(tm), int32(tk), int32(tl), df.Tiling.Footprint())
						want = append(want, MustEvaluate(mm, df))
					}
				}
			}
		}
		flush()
	}
}

// TestBatchEvalStationary checks the kernel re-exports each order's rotation
// class correctly.
func TestBatchEvalStationary(t *testing.T) {
	orders := dataflow.AllOrders()
	kern, err := NewBatchEval(op.MatMul{Name: "s", M: 8, K: 8, L: 8}, orders)
	if err != nil {
		t.Fatal(err)
	}
	for oi, o := range orders {
		if got, want := kern.Stationary(uint8(oi)), o.Stationary().Kind(); got != want {
			t.Fatalf("order %v: Stationary=%v want %v", o, got, want)
		}
	}
}

// TestNewBatchEvalRejects checks construction-time validation: bad operator,
// extents beyond Block's int32 tile range, empty order list, malformed order.
func TestNewBatchEvalRejects(t *testing.T) {
	if _, err := NewBatchEval(op.MatMul{Name: "bad", M: 0, K: 1, L: 1}, dataflow.AllOrders()); err == nil {
		t.Fatal("invalid operator accepted")
	}
	for _, mm := range []op.MatMul{
		{Name: "huge-m", M: math.MaxInt32 + 1, K: 2, L: 2},
		{Name: "huge-k", M: 2, K: 3_000_000_000, L: 2},
		{Name: "huge-l", M: 2, K: 2, L: math.MaxInt64},
	} {
		if _, err := NewBatchEval(mm, dataflow.AllOrders()); !errors.Is(err, errs.ErrInvalidOperator) {
			t.Fatalf("%v: err = %v, want ErrInvalidOperator", mm, err)
		}
	}
	if _, err := NewBatchEval(op.MatMul{Name: "max", M: math.MaxInt32, K: 2, L: 2}, dataflow.AllOrders()); err != nil {
		t.Fatalf("extent MaxInt32 rejected: %v", err)
	}
	if _, err := NewBatchEval(op.MatMul{Name: "ok", M: 4, K: 4, L: 4}, nil); err == nil {
		t.Fatal("empty order list accepted")
	}
	bad := []dataflow.Order{{dataflow.DimM, dataflow.DimM, dataflow.DimK}}
	if _, err := NewBatchEval(op.MatMul{Name: "ok", M: 4, K: 4, L: 4}, bad); err == nil {
		t.Fatal("duplicate-dim order accepted")
	}
}

// TestEvalBlockZeroAllocs pins the per-block steady state at zero
// allocations: one EvalBlock call over a reused block must not allocate.
// Under -tags=fusecuchecks the per-candidate assertions format their
// arguments, so the zero budget only holds on the production build.
func TestEvalBlockZeroAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant checks compiled in: assertions allocate")
	}
	mm := op.MatMul{Name: "alloc", M: 256, K: 192, L: 192}
	kern, err := NewBatchEval(mm, dataflow.AllOrders())
	if err != nil {
		t.Fatal(err)
	}
	blk := NewBlock(256)
	for i := 0; i < 256; i++ {
		tm := 1 + i%mm.M
		blk.Push(uint8(i%6), int32(tm), 16, 16, int64(tm)*16+16*16+int64(tm)*16)
	}
	if n := testing.AllocsPerRun(100, func() { kern.EvalBlock(blk) }); n != 0 {
		t.Fatalf("EvalBlock allocated %v times per run, want 0", n)
	}
}

// BenchmarkBatchKernel measures the per-candidate cost of the batch path
// (ns/candidate ≈ ns/op ÷ 256) and pins its zero-allocation property.
func BenchmarkBatchKernel(b *testing.B) {
	mm := op.MatMul{Name: "bench", M: 256, K: 192, L: 256}
	kern, err := NewBatchEval(mm, dataflow.AllOrders())
	if err != nil {
		b.Fatal(err)
	}
	blk := NewBlock(256)
	for i := 0; i < 256; i++ {
		tm := 1 + (i*7)%mm.M
		tk := 1 + (i*5)%mm.K
		tl := 1 + (i*3)%mm.L
		foot := int64(tm)*int64(tk) + int64(tk)*int64(tl) + int64(tm)*int64(tl)
		blk.Push(uint8(i%6), int32(tm), int32(tk), int32(tl), foot)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.EvalBlock(blk)
	}
}
