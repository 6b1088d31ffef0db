package search

import (
	"context"
	"errors"
	"testing"

	"fusecu/internal/op"
)

// cancelOp is a shape on which every engine has real work left to do, so a
// canceled context must be reported rather than a finished answer.
var cancelOp = op.MatMul{Name: "cancel", M: 256, K: 256, L: 256}

func TestOptimizeCtxCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeCtx(ctx, cancelOp, 1<<20, GeneticOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestOptimizeCtxMatchesUncancelled(t *testing.T) {
	mm := op.MatMul{Name: "small", M: 96, K: 64, L: 80}
	want, err := Optimize(mm, 4096, GeneticOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := OptimizeCtx(context.Background(), mm, 4096, GeneticOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ctx variant diverged: got %+v want %+v", got, want)
	}
	if got.CacheHits != 0 {
		t.Fatalf("walk-backed DAT reported %d cache hits", got.CacheHits)
	}
}

func TestGeneticCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := GeneticCtx(ctx, cancelOp, 1<<20, GeneticOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSequentialEnginesIgnoreBackgroundCtx(t *testing.T) {
	// The context-free wrappers route through context.Background(); they
	// must stay bit-identical to their Ctx variants.
	mm := op.MatMul{Name: "tiny", M: 24, K: 16, L: 20}
	ctx := context.Background()
	a, err := OptimizeAnalytic(mm, 512)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OptimizeAnalyticCtx(ctx, mm, 512)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("background-ctx walk diverged: %+v vs %+v", a, b)
	}
	g, err := Genetic(mm, 512, GeneticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := GeneticCtx(ctx, mm, 512, GeneticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("background-ctx GA diverged: %+v vs %+v", g, h)
	}
}

func TestExhaustiveCtxCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, g := range []Grid{GridFull, GridCoarse} {
		if _, err := WalkCtx(ctx, cancelOp, 1<<20, g); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s walk err = %v, want context.Canceled", g, err)
		}
	}
}

func TestExhaustiveCtxMatchesUncancelled(t *testing.T) {
	mm := op.MatMul{Name: "small", M: 24, K: 16, L: 20}
	want, err := ReferenceExhaustive(mm, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := WalkCtx(context.Background(), mm, 4096, GridFull)
	if err != nil {
		t.Fatal(err)
	}
	checkSameAnswer(t, "walk", want, got)
}
