package errs_test

import (
	"errors"
	"testing"

	"fusecu/internal/arch"
	"fusecu/internal/core"
	"fusecu/internal/errs"
	"fusecu/internal/fusion"
	"fusecu/internal/model"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// TestClassification pins the error taxonomy contract: every failure class
// the service maps to an HTTP status must be classifiable with errors.Is
// regardless of which package produced it.
func TestClassification(t *testing.T) {
	bad := op.MatMul{Name: "bad", M: 0, K: 4, L: 4}
	good := op.MatMul{Name: "ok", M: 8, K: 8, L: 8}

	cases := []struct {
		name string
		err  error
		want error
	}{
		{"op validate", bad.Validate(), errs.ErrInvalidOperator},
		{"empty chain", op.ErrEmptyChain, errs.ErrInvalidChain},
		{"chain link mismatch", chainErr(t), errs.ErrInvalidChain},
		{"fusion pair mismatch", pairErr(t), errs.ErrInvalidChain},
		{"core buffer too small", optErr(t, good, 2), errs.ErrBufferTooSmall},
		{"core sentinel wraps shared", core.ErrBufferTooSmall, errs.ErrBufferTooSmall},
		{"search buffer too small", searchErr(t, good, 2), errs.ErrBufferTooSmall},
		{"search invalid op", searchValidate(t, bad), errs.ErrInvalidOperator},
		{"unknown platform", byNameErr(t), errs.ErrUnknownPlatform},
		{"unknown model", modelErr(t), errs.ErrUnknownModel},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: expected an error", c.name)
			continue
		}
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: %v is not %v", c.name, c.err, c.want)
		}
	}
}

func chainErr(t *testing.T) error {
	t.Helper()
	_, err := op.NewChain("c", op.MatMul{Name: "a", M: 8, K: 8, L: 8}, op.MatMul{Name: "b", M: 8, K: 9, L: 8})
	return err
}

func pairErr(t *testing.T) error {
	t.Helper()
	_, err := fusion.NewPair(op.MatMul{Name: "a", M: 8, K: 8, L: 8}, op.MatMul{Name: "b", M: 8, K: 9, L: 8})
	return err
}

func optErr(t *testing.T, mm op.MatMul, bs int64) error {
	t.Helper()
	_, err := core.Optimize(mm, bs)
	return err
}

func searchErr(t *testing.T, mm op.MatMul, bs int64) error {
	t.Helper()
	_, err := search.Genetic(mm, bs, search.GeneticOptions{})
	return err
}

func searchValidate(t *testing.T, mm op.MatMul) error {
	t.Helper()
	_, err := search.ReferenceExhaustive(mm, 1024)
	return err
}

func byNameErr(t *testing.T) error {
	t.Helper()
	_, err := arch.ByName("nope")
	return err
}

func modelErr(t *testing.T) error {
	t.Helper()
	_, err := model.ByName("nope")
	return err
}

// TestInvalidDataflow covers the fusion-side dataflow validity class.
func TestInvalidDataflow(t *testing.T) {
	p, err := fusion.NewPair(
		op.MatMul{Name: "a", M: 8, K: 8, L: 8},
		op.MatMul{Name: "b", M: 8, K: 8, L: 8})
	if err != nil {
		t.Fatal(err)
	}
	var fd fusion.FusedDataflow // zero tiles are out of [1, dim]
	if err := fd.Validate(p); !errors.Is(err, errs.ErrInvalidDataflow) {
		t.Fatalf("Validate: %v is not ErrInvalidDataflow", err)
	}
}
