package op

import (
	"errors"
	"strings"
	"testing"

	"fusecu/internal/errs"
)

func TestMatMulValidate(t *testing.T) {
	if err := (MatMul{Name: "ok", M: 2, K: 3, L: 4}).Validate(); err != nil {
		t.Fatalf("valid matmul rejected: %v", err)
	}
	for _, bad := range []MatMul{{M: 0, K: 1, L: 1}, {M: 1, K: -2, L: 1}, {M: 1, K: 1, L: 0}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("matmul %+v accepted", bad)
		}
	}
}

// Validate rejects shapes whose worst-case traffic 3·M·K·L overflows int64,
// and accepts the largest cube whose traffic still fits.
func TestMatMulValidateOverflow(t *testing.T) {
	for _, bad := range []MatMul{
		{M: 1 << 21, K: 1 << 21, L: 1 << 21},       // M·K·L = 2^63
		{M: 1572864, K: 1 << 21, L: 1 << 21},       // M·K·L fits, 3·M·K·L does not
		{M: 1 << 24, K: 1 << 24, L: 1 << 24},       // M·K·L overflows
		{M: 1 << 62, K: 4, L: 1},                   // M·K overflows
		{M: 3_037_000_499, K: 3_037_000_499, L: 2}, // M·K fits, M·K·L does not
	} {
		if err := bad.Validate(); !errors.Is(err, errs.ErrInvalidOperator) {
			t.Errorf("%v: err = %v, want ErrInvalidOperator", bad, err)
		}
	}
	for _, ok := range []MatMul{{M: 1 << 20, K: 1 << 20, L: 1 << 20}, {M: 1 << 27, K: 1 << 27, L: 1 << 6}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%v rejected: %v", ok, err)
		}
	}
}

// Operators that each fit can still overflow together: a chain's or a
// pair's summed traffic must fit too.
func TestValidateAllSummedOverflow(t *testing.T) {
	cube := MatMul{M: 1_400_000, K: 1_400_000, L: 1_400_000} // 3·M·K·L ≈ 8.2e18
	if err := cube.Validate(); err != nil {
		t.Fatalf("%v rejected alone: %v", cube, err)
	}
	if err := ValidateAll(cube, cube); !errors.Is(err, errs.ErrInvalidOperator) {
		t.Errorf("ValidateAll(cube, cube) = %v, want ErrInvalidOperator", err)
	}
	if _, err := NewChain("huge", cube, cube); !errors.Is(err, errs.ErrInvalidOperator) {
		t.Errorf("NewChain(cube, cube) = %v, want ErrInvalidOperator", err)
	}
	thin := MatMul{M: 1 << 60, K: 1, L: 1} // two of them sum to 3·2^61 < 2^63
	if _, err := NewChain("thin", thin, thin); err != nil {
		t.Errorf("NewChain(thin, thin) rejected: %v", err)
	}
	if err := ValidateAll(thin, thin, thin); !errors.Is(err, errs.ErrInvalidOperator) {
		t.Errorf("ValidateAll(thin ×3) = %v, want ErrInvalidOperator", err)
	}
	if err := ValidateAll(thin, MatMul{M: 0, K: 1, L: 1}); !errors.Is(err, errs.ErrInvalidOperator) {
		t.Errorf("ValidateAll with a non-positive operator = %v, want ErrInvalidOperator", err)
	}
}

func TestMatMulSizes(t *testing.T) {
	m := MatMul{M: 1024, K: 768, L: 768}
	if m.SizeA() != 1024*768 || m.SizeB() != 768*768 || m.SizeC() != 1024*768 {
		t.Fatalf("sizes: A=%d B=%d C=%d", m.SizeA(), m.SizeB(), m.SizeC())
	}
	if m.MACs() != int64(1024)*768*768 {
		t.Fatalf("MACs = %d", m.MACs())
	}
	if m.MinDim() != 768 {
		t.Fatalf("MinDim = %d", m.MinDim())
	}
	// B is the smallest tensor in the paper's BERT example.
	if m.MinTensor() != 768*768 {
		t.Fatalf("MinTensor = %d", m.MinTensor())
	}
	if m.IdealMA() != m.SizeA()+m.SizeB()+m.SizeC() {
		t.Fatal("IdealMA is not the sum of tensor sizes")
	}
}

func TestMatMulMinOverflowSafety(t *testing.T) {
	m := MatMul{M: 100000, K: 100000, L: 100000}
	if m.MACs() != 1e15 {
		t.Fatalf("MACs overflowed: %d", m.MACs())
	}
}

func TestNewChainValid(t *testing.T) {
	c, err := NewChain("attn",
		MatMul{Name: "QKt", M: 256, K: 64, L: 256},
		MatMul{Name: "SV", M: 256, K: 256, L: 64},
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.IntermediateSize(0) != 256*256 {
		t.Fatalf("IntermediateSize = %d", c.IntermediateSize(0))
	}
	if c.MACs() != int64(256)*64*256+int64(256)*256*64 {
		t.Fatalf("chain MACs = %d", c.MACs())
	}
}

func TestNewChainShapeMismatch(t *testing.T) {
	_, err := NewChain("bad",
		MatMul{M: 8, K: 4, L: 6},
		MatMul{M: 8, K: 7, L: 3}, // consumer K must equal producer L=6
	)
	if err == nil {
		t.Fatal("mismatched chain accepted")
	}
	if !strings.Contains(err.Error(), "link 0") {
		t.Fatalf("error does not identify the broken link: %v", err)
	}
}

func TestNewChainMRowMismatch(t *testing.T) {
	_, err := NewChain("bad",
		MatMul{M: 8, K: 4, L: 6},
		MatMul{M: 9, K: 6, L: 3},
	)
	if err == nil {
		t.Fatal("row-mismatched chain accepted")
	}
}

func TestEmptyChain(t *testing.T) {
	if _, err := NewChain("empty"); err != ErrEmptyChain {
		t.Fatalf("empty chain error = %v", err)
	}
}

func TestWithElementwise(t *testing.T) {
	c, err := NewChain("attn",
		MatMul{Name: "QKt", M: 16, K: 8, L: 16},
		MatMul{Name: "SV", M: 16, K: 16, L: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WithElementwise(0, "softmax"); err != nil {
		t.Fatal(err)
	}
	if c.Elementwise[0].Rows != 16 || c.Elementwise[0].Cols != 16 {
		t.Fatalf("elementwise shape %dx%d", c.Elementwise[0].Rows, c.Elementwise[0].Cols)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WithElementwise(5, "softmax"); err == nil {
		t.Fatal("out-of-range elementwise accepted")
	}
}

func TestChainUnfusedIdealMA(t *testing.T) {
	c, _ := NewChain("c",
		MatMul{M: 4, K: 2, L: 6},
		MatMul{M: 4, K: 6, L: 3},
	)
	want := int64(4*2+2*6+4*6) + int64(4*6+6*3+4*3)
	if got := c.UnfusedIdealMA(); got != want {
		t.Fatalf("UnfusedIdealMA = %d, want %d", got, want)
	}
}

func TestChainStringMentionsOps(t *testing.T) {
	c, _ := NewChain("attn",
		MatMul{Name: "QKt", M: 16, K: 8, L: 16},
		MatMul{Name: "SV", M: 16, K: 16, L: 8},
	)
	c.WithElementwise(0, "softmax")
	s := c.String()
	for _, want := range []string{"QKt", "SV", "softmax"} {
		if !strings.Contains(s, want) {
			t.Errorf("chain string %q missing %q", s, want)
		}
	}
}

func TestElementwiseShapeValidation(t *testing.T) {
	c, _ := NewChain("c",
		MatMul{M: 4, K: 2, L: 6},
		MatMul{M: 4, K: 6, L: 3},
	)
	c.Elementwise[0] = Elementwise{Name: "relu", Rows: 9, Cols: 9}
	if err := c.Validate(); err == nil {
		t.Fatal("mismatched elementwise shape accepted")
	}
}
