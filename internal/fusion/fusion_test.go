package fusion

import (
	"errors"
	"math/rand"
	"testing"

	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/op"
)

func mustPair(t *testing.T, m, k, l, n int) Pair {
	t.Helper()
	p, err := NewPair(
		op.MatMul{Name: "mm1", M: m, K: k, L: l},
		op.MatMul{Name: "mm2", M: m, K: l, L: n},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPairValidation(t *testing.T) {
	if _, err := NewPair(op.MatMul{M: 4, K: 2, L: 6}, op.MatMul{M: 4, K: 6, L: 3}); err != nil {
		t.Fatalf("valid pair rejected: %v", err)
	}
	if _, err := NewPair(op.MatMul{M: 4, K: 2, L: 6}, op.MatMul{M: 4, K: 5, L: 3}); err == nil {
		t.Fatal("K mismatch accepted")
	}
	if _, err := NewPair(op.MatMul{M: 4, K: 2, L: 6}, op.MatMul{M: 5, K: 6, L: 3}); err == nil {
		t.Fatal("M mismatch accepted")
	}
	if _, err := NewPair(op.MatMul{M: 0, K: 2, L: 6}, op.MatMul{M: 0, K: 6, L: 3}); err == nil {
		t.Fatal("invalid op accepted")
	}
	// Each cube's 3·M·K·L fits int64, their sum does not.
	cube := op.MatMul{M: 1_400_000, K: 1_400_000, L: 1_400_000}
	if _, err := NewPair(cube, cube); !errors.Is(err, errs.ErrInvalidOperator) {
		t.Fatalf("pair whose summed traffic overflows: err = %v, want ErrInvalidOperator", err)
	}
}

func TestPairAccessors(t *testing.T) {
	p := mustPair(t, 8, 4, 6, 5)
	if p.M() != 8 || p.K() != 4 || p.L() != 6 || p.N() != 5 {
		t.Fatalf("dims = %d %d %d %d", p.M(), p.K(), p.L(), p.N())
	}
	if p.IntermediateSize() != 48 {
		t.Fatalf("IntermediateSize = %d", p.IntermediateSize())
	}
	if p.FusedIdealMA() != int64(8*4+4*6+6*5+8*5) {
		t.Fatalf("FusedIdealMA = %d", p.FusedIdealMA())
	}
}

func TestPatternNRAMapping(t *testing.T) {
	for _, pat := range Patterns() {
		back, ok := PatternForNRA(pat.NRAClass())
		if !ok || back != pat {
			t.Errorf("pattern %v NRA round-trip failed", pat)
		}
	}
	if _, ok := PatternForNRA(dataflow.NRAZero); ok {
		t.Error("Zero-NRA should have no fused pattern")
	}
}

func TestValidatePinnedDims(t *testing.T) {
	p := mustPair(t, 8, 4, 6, 5)
	bad := FusedDataflow{Pattern: PatternColumn, TM: 2, TK: 2, TL: 1, TN: 5}
	if err := bad.Validate(p); err == nil {
		t.Error("column with tiled K accepted")
	}
	bad = FusedDataflow{Pattern: PatternResident, TM: 4, TK: 1, TL: 6, TN: 5}
	if err := bad.Validate(p); err == nil {
		t.Error("resident with tiled M accepted")
	}
	bad = FusedDataflow{Pattern: PatternTileOSIS, TM: 0, TK: 1, TL: 1, TN: 1}
	if err := bad.Validate(p); err == nil {
		t.Error("zero tile accepted")
	}
}

func TestEvaluateTileOSISFormula(t *testing.T) {
	p := mustPair(t, 8, 4, 6, 4)
	fd := FusedDataflow{Pattern: PatternTileOSIS, TM: 2, TK: 1, TL: 3, TN: 1}
	a, err := Evaluate(p, fd)
	if err != nil {
		t.Fatal(err)
	}
	nM, nL := int64(4), int64(2)
	if a.A != int64(8*4)*nL || a.B != int64(4*6)*nM || a.D != int64(6*4)*nM || a.E != int64(8*4)*nL {
		t.Fatalf("traffic = %+v", a)
	}
	if a.EReads != int64(8*4)*(nL-1) {
		t.Fatalf("EReads = %d", a.EReads)
	}
	if a.Footprint != 2*1+1*3+2*3+3*1+2*1 {
		t.Fatalf("footprint = %d", a.Footprint)
	}
}

func TestEvaluateColumnFormula(t *testing.T) {
	p := mustPair(t, 8, 4, 6, 4)
	fd := FusedDataflow{Pattern: PatternColumn, TM: 2, TK: 4, TL: 1, TN: 4}
	a, err := Evaluate(p, fd)
	if err != nil {
		t.Fatal(err)
	}
	nM := int64(4)
	if a.A != 8*4 || a.E != 8*4 {
		t.Fatalf("A/E should be non-redundant: %+v", a)
	}
	if a.B != int64(4*6)*nM || a.D != int64(6*4)*nM {
		t.Fatalf("B/D redundancy wrong: %+v", a)
	}
}

func TestEvaluateResidentIsFusedIdeal(t *testing.T) {
	p := mustPair(t, 8, 4, 6, 4)
	fd := FusedDataflow{Pattern: PatternResident, TM: 8, TK: 1, TL: 6, TN: 4}
	a, err := Evaluate(p, fd)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != p.FusedIdealMA() {
		t.Fatalf("Total = %d, want %d", a.Total, p.FusedIdealMA())
	}
	if a.EReads != 0 {
		t.Fatalf("EReads = %d", a.EReads)
	}
}

// The closed-form fused model must agree exactly with the executed tile
// trace for every pattern, including ragged tilings.
func TestEvaluateMatchesOracleExhaustive(t *testing.T) {
	p := mustPair(t, 7, 3, 5, 4)
	for tm := 1; tm <= 7; tm++ {
		for tl := 1; tl <= 5; tl++ {
			for tk := 1; tk <= 3; tk++ {
				for tn := 1; tn <= 4; tn++ {
					fd := FusedDataflow{Pattern: PatternTileOSIS, TM: tm, TK: tk, TL: tl, TN: tn}
					compareOracle(t, p, fd)
				}
			}
			fd := FusedDataflow{Pattern: PatternColumn, TM: tm, TK: 3, TL: tl, TN: 4}
			compareOracle(t, p, fd)
		}
	}
	compareOracle(t, p, FusedDataflow{Pattern: PatternResident, TM: 7, TK: 2, TL: 5, TN: 4})
}

func TestEvaluateMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		m, k, l, n := rng.Intn(12)+1, rng.Intn(12)+1, rng.Intn(12)+1, rng.Intn(12)+1
		p := mustPair(t, m, k, l, n)
		var fd FusedDataflow
		switch rng.Intn(3) {
		case 0:
			fd = FusedDataflow{Pattern: PatternTileOSIS,
				TM: rng.Intn(m) + 1, TK: rng.Intn(k) + 1, TL: rng.Intn(l) + 1, TN: rng.Intn(n) + 1}
		case 1:
			fd = FusedDataflow{Pattern: PatternColumn,
				TM: rng.Intn(m) + 1, TK: k, TL: rng.Intn(l) + 1, TN: n}
		default:
			fd = FusedDataflow{Pattern: PatternResident, TM: m, TK: rng.Intn(k) + 1, TL: l, TN: n}
		}
		compareOracle(t, p, fd)
	}
}

func compareOracle(t *testing.T, p Pair, fd FusedDataflow) {
	t.Helper()
	want, err := TraceEvaluate(p, fd)
	if err != nil {
		t.Fatalf("%v %v: %v", p, fd, err)
	}
	got, err := Evaluate(p, fd)
	if err != nil {
		t.Fatalf("%v %v: %v", p, fd, err)
	}
	if got.A != want.A || got.B != want.B || got.D != want.D || got.E != want.E || got.EReads != want.EReads {
		t.Fatalf("%v %v: analytical %+v, trace %+v", p, fd, got, want)
	}
}

func TestConstructTileOSISRespectsBuffer(t *testing.T) {
	p := mustPair(t, 64, 16, 64, 16)
	for _, bs := range []int64{8, 64, 512, 4096} {
		c, ok := ConstructTileOSIS(p, bs)
		if !ok {
			if bs >= 8 {
				t.Errorf("BS=%d: no tile-fusion candidate", bs)
			}
			continue
		}
		if c.Access.Footprint > bs {
			t.Errorf("BS=%d: footprint %d overflows", bs, c.Access.Footprint)
		}
		if c.Dataflow.TK != 1 || c.Dataflow.TN != 1 {
			t.Errorf("BS=%d: T_K/T_N not minimized: %v", bs, c.Dataflow)
		}
	}
}

func TestConstructColumnStructure(t *testing.T) {
	p := mustPair(t, 256, 32, 256, 32)
	c, ok := ConstructColumn(p, 16384)
	if !ok {
		t.Fatal("no column candidate")
	}
	fd := c.Dataflow
	if fd.TK != 32 || fd.TL != 1 || fd.TN != 32 {
		t.Fatalf("dataflow = %v", fd)
	}
	// T_M = (BS − K − N)/(K + N + 1) = (16384−64)/65 = 251
	if fd.TM != 251 {
		t.Fatalf("T_M = %d, want 251", fd.TM)
	}
	if c.Access.A != p.First.SizeA() || c.Access.E != p.Second.SizeC() {
		t.Fatal("A and E should be non-redundant in column fusion")
	}
}

func TestConstructColumnInfeasible(t *testing.T) {
	p := mustPair(t, 256, 32, 256, 32)
	if _, ok := ConstructColumn(p, 64); ok {
		t.Fatal("column fusion in 64 elements accepted")
	}
}

func TestConstructResidentNeedsRoom(t *testing.T) {
	p := mustPair(t, 16, 8, 16, 8)
	// Needs max(ML + K·... , ML + MN + ...) elements.
	if _, ok := ConstructResident(p, 128); ok {
		t.Fatal("resident fusion in 128 elements accepted")
	}
	c, ok := ConstructResident(p, 1024)
	if !ok {
		t.Fatal("resident fusion rejected with ample buffer")
	}
	if c.Access.Total != p.FusedIdealMA() {
		t.Fatalf("Total = %d, want fused ideal %d", c.Access.Total, p.FusedIdealMA())
	}
}

func TestBestPicksCheapestPattern(t *testing.T) {
	p := mustPair(t, 128, 32, 128, 32)
	// Huge buffer: the fused ideal is reachable (tile fusion with everything
	// resident ties with the resident pattern, so check the bound, not the
	// pattern label).
	c, ok := Best(p, 1<<22)
	if !ok {
		t.Fatal("no fused candidate")
	}
	if c.Access.Total != p.FusedIdealMA() {
		t.Fatalf("Total = %d, want %d", c.Access.Total, p.FusedIdealMA())
	}
	// Small buffer: resident infeasible, another pattern must serve.
	c, ok = Best(p, 2048)
	if !ok {
		t.Fatal("no fused candidate with small buffer")
	}
	if c.Dataflow.Pattern == PatternResident {
		t.Fatal("resident should not fit in 2048 elements")
	}
	if c.Access.Footprint > 2048 {
		t.Fatal("footprint overflow")
	}
}

// Fusion gain must grow with sequence length for attention-shaped pairs
// (Fig. 11's driving effect: the eliminated intermediate is seq×seq).
func TestFusionSavingGrowsWithSequenceLength(t *testing.T) {
	bs := int64(256 * 1024)
	prevSaving := int64(-1)
	for _, seq := range []int{256, 512, 1024, 2048} {
		p := mustPair(t, seq, 64, seq, 64)
		c, ok := Best(p, bs)
		if !ok {
			t.Fatalf("seq=%d: no fused candidate", seq)
		}
		// Savings relative to the unfused ideal (which still pays 2·ML for
		// the intermediate).
		unfusedIdeal := p.First.IdealMA() + p.Second.IdealMA()
		saving := unfusedIdeal - c.Access.Total
		if saving <= prevSaving {
			t.Fatalf("seq=%d: saving %d did not grow (prev %d)", seq, saving, prevSaving)
		}
		prevSaving = saving
	}
}

func TestStringers(t *testing.T) {
	p := mustPair(t, 4, 4, 4, 4)
	if p.String() == "" {
		t.Fatal("empty pair string")
	}
	fd := FusedDataflow{Pattern: PatternColumn, TM: 1, TK: 4, TL: 1, TN: 4}
	if fd.String() == "" {
		t.Fatal("empty dataflow string")
	}
	for _, pat := range Patterns() {
		if pat.String() == "" {
			t.Fatal("empty pattern string")
		}
	}
}

func BenchmarkEvaluateFused(b *testing.B) {
	p, err := NewPair(
		op.MatMul{M: 4096, K: 128, L: 4096},
		op.MatMul{M: 4096, K: 4096, L: 128},
	)
	if err != nil {
		b.Fatal(err)
	}
	fd := FusedDataflow{Pattern: PatternColumn, TM: 512, TK: 128, TL: 1, TN: 128}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(p, fd); err != nil {
			b.Fatal(err)
		}
	}
}
