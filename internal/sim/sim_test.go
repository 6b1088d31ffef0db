package sim

import (
	"math/rand"
	"testing"

	"fusecu/internal/dataflow"
	"fusecu/internal/tensor"
)

const tol = 1e-9

func TestNewCUValidation(t *testing.T) {
	if _, err := NewCU(0, 4); err == nil {
		t.Fatal("invalid CU accepted")
	}
	if _, err := NewFabric(0); err == nil {
		t.Fatal("invalid fabric dimension accepted")
	}
	cu, err := NewCU(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if cu.Rows != 4 || cu.Cols != 6 || cu.Cycles() != 0 {
		t.Fatalf("CU = %+v", cu)
	}
}

func TestLoadStationaryPadsAndCounts(t *testing.T) {
	cu, _ := NewCU(4, 4)
	m := tensor.New(2, 3).Seq(1)
	if err := cu.LoadStationary(m); err != nil {
		t.Fatal(err)
	}
	if cu.stat[0][0] != m.At(0, 0) || cu.stat[1][2] != m.At(1, 2) {
		t.Fatal("stationary contents wrong")
	}
	if cu.stat[3][3] != 0 || cu.stat[2][0] != 0 {
		t.Fatal("padding not zeroed")
	}
	if cu.Cycles() != 4 {
		t.Fatalf("cycles = %d, want 4 (one per row)", cu.Cycles())
	}
	if err := cu.LoadStationary(tensor.New(5, 2)); err == nil {
		t.Fatal("oversized stationary accepted")
	}
}

func TestPassDownMatchesReference(t *testing.T) {
	// out = stream × stationary with the stationary loaded as B.
	a := tensor.New(7, 4).Seq(1) // M×K
	b := tensor.New(4, 5).Seq(2) // K×L
	cu, _ := NewCU(4, 5)
	if err := cu.LoadStationary(b); err != nil {
		t.Fatal(err)
	}
	got, err := cu.PassDown(a)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.MatMul(a, b)
	if !tensor.Equal(got, want, tol) {
		t.Fatalf("PassDown diverges from reference by %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestPassDownRejectsWideStream(t *testing.T) {
	cu, _ := NewCU(2, 2)
	if _, err := cu.PassDown(tensor.New(3, 3)); err == nil {
		t.Fatal("stream wider than array accepted")
	}
}

func TestPassRightMatchesReference(t *testing.T) {
	// out = stationary × stream with the stationary loaded as A.
	a := tensor.New(3, 4).Seq(3) // M×K
	b := tensor.New(4, 6).Seq(4) // K×N
	cu, _ := NewCU(3, 4)
	if err := cu.LoadStationary(a); err != nil {
		t.Fatal(err)
	}
	got, err := cu.PassRight(b, false)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.MatMul(a, b)
	if !tensor.Equal(got, want, tol) {
		t.Fatalf("PassRight diverges from reference by %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestPassAccumulateMatchesReference(t *testing.T) {
	a := tensor.New(3, 9).Seq(5) // M×K, K streams temporally
	b := tensor.New(9, 4).Seq(6)
	cu, _ := NewCU(3, 4)
	if err := cu.PassAccumulate(a, b); err != nil {
		t.Fatal(err)
	}
	got, err := cu.Accumulators(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.MatMul(a, b)
	if !tensor.Equal(got, want, tol) {
		t.Fatalf("PassAccumulate diverges by %v", tensor.MaxAbsDiff(got, want))
	}
	// A second pass accumulates on top.
	if err := cu.PassAccumulate(a, b); err != nil {
		t.Fatal(err)
	}
	got2, _ := cu.Accumulators(3, 4)
	for i := range got2.Data {
		if diff := got2.Data[i] - 2*want.Data[i]; diff > tol || diff < -tol {
			t.Fatal("second accumulate pass did not add")
		}
	}
}

func TestPassAccumulateErrors(t *testing.T) {
	cu, _ := NewCU(2, 2)
	if err := cu.PassAccumulate(tensor.New(3, 2), tensor.New(2, 2)); err == nil {
		t.Fatal("oversized A accepted")
	}
	if err := cu.PassAccumulate(tensor.New(2, 3), tensor.New(2, 2)); err == nil {
		t.Fatal("reduction mismatch accepted")
	}
}

func TestAccumulatorDrainBounds(t *testing.T) {
	cu, _ := NewCU(2, 2)
	if _, err := cu.Accumulators(3, 1); err == nil {
		t.Fatal("oversized drain accepted")
	}
	if _, err := cu.Accumulators(0, 1); err == nil {
		t.Fatal("empty drain accepted")
	}
}

func TestFabricMatMulAllStationaries(t *testing.T) {
	f, err := NewFabric(4)
	if err != nil {
		t.Fatal(err)
	}
	// Bigger than one CU in every dimension, with ragged edges.
	a := tensor.New(9, 7).Seq(1)
	b := tensor.New(7, 10).Seq(2)
	want, _ := tensor.MatMul(a, b)
	for _, st := range []dataflow.StationaryKind{dataflow.WS, dataflow.IS, dataflow.OS} {
		got, err := f.MatMul(a, b, st)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if !tensor.Equal(got, want, tol) {
			t.Fatalf("%v diverges from reference by %v", st, tensor.MaxAbsDiff(got, want))
		}
	}
	if f.Cycles() <= 0 {
		t.Fatal("no cycles recorded")
	}
}

func TestFabricMatMulShapeMismatch(t *testing.T) {
	f, _ := NewFabric(4)
	if _, err := f.MatMul(tensor.New(2, 3), tensor.New(4, 2), dataflow.WS); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestFabricMatMulRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f, _ := NewFabric(5)
	for i := 0; i < 25; i++ {
		m, k, l := rng.Intn(12)+1, rng.Intn(12)+1, rng.Intn(12)+1
		a := tensor.New(m, k).Seq(i)
		b := tensor.New(k, l).Seq(i + 1)
		want, _ := tensor.MatMul(a, b)
		st := []dataflow.StationaryKind{dataflow.WS, dataflow.IS, dataflow.OS}[rng.Intn(3)]
		got, err := f.MatMul(a, b, st)
		if err != nil {
			t.Fatalf("%d×%d×%d %v: %v", m, k, l, st, err)
		}
		if !tensor.Equal(got, want, 1e-6) {
			t.Fatalf("%d×%d×%d %v diverges by %v", m, k, l, st, tensor.MaxAbsDiff(got, want))
		}
	}
}

func fusedReference(a, b, d *tensor.Matrix, elem func(float64) float64) *tensor.Matrix {
	c, _ := tensor.MatMul(a, b)
	if elem != nil {
		for i := range c.Data {
			c.Data[i] = elem(c.Data[i])
		}
	}
	e, _ := tensor.MatMul(c, d)
	return e
}

func TestTileFusedMatchesReference(t *testing.T) {
	f, _ := NewFabric(4)
	a := tensor.New(6, 5).Seq(1)
	b := tensor.New(5, 7).Seq(2)
	d := tensor.New(7, 6).Seq(3)
	got, err := f.TileFused(a, b, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fusedReference(a, b, d, nil)
	if !tensor.Equal(got, want, 1e-6) {
		t.Fatalf("tile fusion diverges by %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestTileFusedWithElementwise(t *testing.T) {
	f, _ := NewFabric(8)
	a := tensor.New(8, 3).Seq(4)
	b := tensor.New(3, 8).Seq(5)
	d := tensor.New(8, 4).Seq(6)
	relu := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	got, err := f.TileFused(a, b, d, relu)
	if err != nil {
		t.Fatal(err)
	}
	// The in-array elementwise unit applies per C tile; with L ≤ one CU the
	// tile covers the whole row and matches the global reference.
	want := fusedReference(a, b, d, relu)
	if !tensor.Equal(got, want, 1e-6) {
		t.Fatalf("tile fusion with relu diverges by %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestColumnFusedMatchesReference(t *testing.T) {
	f, _ := NewFabric(4)
	a := tensor.New(10, 3).Seq(1) // K = 3 ≤ CU width (untiled reduction)
	b := tensor.New(3, 9).Seq(2)
	d := tensor.New(9, 7).Seq(3)
	got, err := f.ColumnFused(a, b, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fusedReference(a, b, d, nil)
	if !tensor.Equal(got, want, 1e-6) {
		t.Fatalf("column fusion diverges by %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestColumnFusedRejectsWideK(t *testing.T) {
	f, _ := NewFabric(4)
	a := tensor.New(4, 9).Seq(1) // K = 9 > CU width
	b := tensor.New(9, 4).Seq(2)
	d := tensor.New(4, 4).Seq(3)
	if _, err := f.ColumnFused(a, b, d, nil); err == nil {
		t.Fatal("K wider than CU accepted")
	}
}

func TestColumnFusedPipelineOverlap(t *testing.T) {
	f, _ := NewFabric(4)
	a := tensor.New(8, 4).Seq(1)
	b := tensor.New(4, 16).Seq(2)
	d := tensor.New(16, 4).Seq(3)
	if _, err := f.ColumnFused(a, b, d, nil); err != nil {
		t.Fatal(err)
	}
	// Producer and consumer overlap: pipelined time must undercut the sum
	// of both CUs' busy time.
	if f.Cycles() >= f.BusyCycles() {
		t.Fatalf("pipeline %d not overlapped vs busy %d", f.Cycles(), f.BusyCycles())
	}
}

func TestFusedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f, _ := NewFabric(5)
	for i := 0; i < 15; i++ {
		m := rng.Intn(10) + 1
		k := rng.Intn(5) + 1 // column fusion needs K ≤ 5
		l := rng.Intn(10) + 1
		n := rng.Intn(10) + 1
		a := tensor.New(m, k).Seq(i)
		b := tensor.New(k, l).Seq(i + 1)
		d := tensor.New(l, n).Seq(i + 2)
		want := fusedReference(a, b, d, nil)
		tf, err := f.TileFused(a, b, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(tf, want, 1e-6) {
			t.Fatalf("case %d: tile fusion diverges by %v", i, tensor.MaxAbsDiff(tf, want))
		}
		cf, err := f.ColumnFused(a, b, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(cf, want, 1e-6) {
			t.Fatalf("case %d: column fusion diverges by %v", i, tensor.MaxAbsDiff(cf, want))
		}
	}
}

func TestGangedCUShapes(t *testing.T) {
	f, _ := NewFabric(8)
	for _, s := range [][2]int{{8, 8}, {16, 8}, {8, 16}, {16, 16}} {
		cu, err := f.GangedCU(s[0], s[1])
		if err != nil {
			t.Errorf("ganging %v rejected: %v", s, err)
			continue
		}
		if cu.Rows != s[0] || cu.Cols != s[1] {
			t.Errorf("ganged CU = %d×%d", cu.Rows, cu.Cols)
		}
	}
	if _, err := f.GangedCU(12, 8); err == nil {
		t.Fatal("non-ganging shape accepted")
	}
}

// Ganged narrow CU supports an untiled reduction up to 2N in column fusion
// style (the paper's 2N untiled-dimension bound).
func TestNarrowGangingDoublesReduction(t *testing.T) {
	f, _ := NewFabric(4)
	wide, err := f.GangedCU(4, 8) // wide: K up to 8
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.New(4, 8).Seq(1)
	b := tensor.New(8, 5).Seq(2)
	if err := wide.LoadStationary(a); err != nil {
		t.Fatal(err)
	}
	got, err := wide.PassRight(b, false)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.MatMul(a, b)
	if !tensor.Equal(got.Sub(0, 4, 0, 5), want, tol) {
		t.Fatal("ganged wide CU wrong result")
	}
}

func TestCycleCountersMonotone(t *testing.T) {
	f, _ := NewFabric(4)
	a := tensor.New(4, 4).Seq(1)
	b := tensor.New(4, 4).Seq(2)
	c0 := f.Cycles()
	if _, err := f.MatMul(a, b, dataflow.OS); err != nil {
		t.Fatal(err)
	}
	c1 := f.Cycles()
	if c1 <= c0 {
		t.Fatal("cycles did not advance")
	}
	if _, err := f.MatMul(a, b, dataflow.WS); err != nil {
		t.Fatal(err)
	}
	if f.Cycles() <= c1 {
		t.Fatal("cycles did not advance on second op")
	}
}

func BenchmarkFabricTileFused(b *testing.B) {
	f, _ := NewFabric(16)
	a := tensor.New(32, 16).Seq(1)
	bb := tensor.New(16, 32).Seq(2)
	d := tensor.New(32, 16).Seq(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.TileFused(a, bb, d, nil); err != nil {
			b.Fatal(err)
		}
	}
}
