package search

import (
	"errors"
	"strings"
	"testing"

	"fusecu/internal/errs"
	"fusecu/internal/faultinject"
	"fusecu/internal/op"
)

// The tests in this file arm the process-global injector, so they must not
// run in parallel with anything that evaluates dataflows. They never call
// t.Parallel and always disarm via t.Cleanup.

func armEval(t *testing.T, plans ...faultinject.Plan) *faultinject.Injector {
	t.Helper()
	in := faultinject.New(1, plans...)
	faultinject.Activate(in)
	t.Cleanup(faultinject.Deactivate)
	return in
}

var faultOp = op.MatMul{Name: "fault", M: 24, K: 16, L: 20}

// checkNamesEngine requires a contained panic's error to name the engine
// whose boundary caught it, and not a lattice scan, which no engine runs.
func checkNamesEngine(t *testing.T, err error, engine string) {
	t.Helper()
	if msg := err.Error(); !strings.Contains(msg, "panic in "+engine+":") || strings.Contains(msg, "scan") {
		t.Fatalf("contained panic does not name the %s: %v", engine, err)
	}
}

// TestInjectedPanicContainedSequential proves the walk's boundary: a panic
// at pricing 31 (of the 62 the full-lattice walk makes on faultOp) surfaces
// as an ErrInternal error, still classifiable as an injected fault, and the
// process survives.
func TestInjectedPanicContainedSequential(t *testing.T) {
	in := armEval(t, faultinject.Plan{Site: SiteEval, Mode: faultinject.ModePanic, Offset: 30, Times: 1})
	_, err := walkFull(faultOp, 2048)
	if err == nil {
		t.Fatal("walk swallowed the injected panic")
	}
	if !errors.Is(err, errs.ErrInternal) {
		t.Fatalf("contained panic is not ErrInternal: %v", err)
	}
	checkNamesEngine(t, err, "exhaustive walk")
	if in.Fires(SiteEval) != 1 {
		t.Fatalf("fires = %d, want 1", in.Fires(SiteEval))
	}
	// A clean rerun after disarming returns the true optimum.
	faultinject.Deactivate()
	if _, err := walkFull(faultOp, 2048); err != nil {
		t.Fatalf("clean rerun failed: %v", err)
	}
}

// TestInjectedErrorPanicsIntoErrInternal: error-mode injection at the eval
// site is delivered by panicking with the injected error; the boundary of
// DAT's lattice stage must preserve both sentinels.
func TestInjectedErrorPanicsIntoErrInternal(t *testing.T) {
	armEval(t, faultinject.Plan{Site: SiteEval, Mode: faultinject.ModeError, Times: 1})
	_, err := Optimize(faultOp, 2048, GeneticOptions{})
	if err == nil {
		t.Fatal("lattice stage swallowed the injected error")
	}
	if !errors.Is(err, errs.ErrInternal) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error lost a sentinel: %v", err)
	}
	checkNamesEngine(t, err, "exhaustive-coarse walk")
}

// TestInjectedPanicContainedGenetic proves the GA's generation-loop boundary.
func TestInjectedPanicContainedGenetic(t *testing.T) {
	armEval(t, faultinject.Plan{Site: SiteEval, Mode: faultinject.ModePanic, Offset: 200, Times: 1})
	_, err := Genetic(faultOp, 2048, GeneticOptions{})
	if err == nil {
		t.Fatal("genetic engine swallowed the injected panic")
	}
	if !errors.Is(err, errs.ErrInternal) {
		t.Fatalf("contained panic is not ErrInternal: %v", err)
	}
	checkNamesEngine(t, err, "genetic search")
}

// TestResultsUnchangedAfterFaultWindow: once a Times-capped fault plan is
// exhausted, the same injector still armed must not perturb results — the
// resilience layer's guarantee that clean requests stay bit-identical.
func TestResultsUnchangedAfterFaultWindow(t *testing.T) {
	want, err := ReferenceExhaustive(faultOp, 2048)
	if err != nil {
		t.Fatal(err)
	}
	armEval(t, faultinject.Plan{Site: SiteEval, Mode: faultinject.ModePanic, Times: 1})
	if _, err := walkFull(faultOp, 2048); !errors.Is(err, errs.ErrInternal) {
		t.Fatalf("first walk should hit the fault: %v", err)
	}
	got, err := walkFull(faultOp, 2048)
	if err != nil {
		t.Fatalf("post-window walk failed: %v", err)
	}
	if got.Dataflow != want.Dataflow || got.Access.Total != want.Access.Total {
		t.Fatalf("post-window result diverged: %+v vs %+v", got, want)
	}
}
