package search

import (
	"context"
	"errors"
	"testing"
	"time"

	"fusecu/internal/op"
)

// cancelOp is large enough that a full-range exhaustive scan takes far
// longer than the cancellation latency under test.
var cancelOp = op.MatMul{Name: "cancel", M: 256, K: 256, L: 256}

func TestParallelExhaustiveCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ParallelExhaustiveCtx(ctx, cancelOp, 1<<20, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Promptness: the full scan takes many seconds; a canceled one must
	// return orders of magnitude sooner. The bound is generous for CI noise.
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("cancellation took %v", el)
	}
}

func TestOptimizeParallelCtxCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeParallelCtx(ctx, cancelOp, 1<<20, GeneticOptions{}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestOptimizeParallelCtxMatchesUncancelled(t *testing.T) {
	mm := op.MatMul{Name: "small", M: 96, K: 64, L: 80}
	want, err := Optimize(mm, 4096, GeneticOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := OptimizeParallelCtx(context.Background(), mm, 4096, GeneticOptions{Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Access.Total != want.Access.Total || got.Dataflow != want.Dataflow {
		t.Fatalf("ctx variant diverged: got %v/%d want %v/%d",
			got.Dataflow, got.Access.Total, want.Dataflow, want.Access.Total)
	}
	if got.Evaluations != want.Evaluations || got.CacheHits != 0 {
		t.Fatalf("candidate visits diverged: %d+%d vs %d",
			got.Evaluations, got.CacheHits, want.Evaluations)
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
	// The legacy wrappers route through context.Background(); they must stay
	// bit-identical to their historical behaviour.
	mm := op.MatMul{Name: "tiny", M: 24, K: 16, L: 20}
	a, err := Exhaustive(mm, 512)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParallelExhaustiveCtx(context.Background(), mm, 512, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Access.Total != b.Access.Total || a.Dataflow != b.Dataflow || a.Evaluations != b.Evaluations {
		t.Fatalf("background-ctx parallel scan diverged from sequential: %+v vs %+v", a, b)
	}
}

func TestExhaustiveCtxCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExhaustiveCtx(ctx, cancelOp, 1<<20); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExhaustiveCtx err = %v, want context.Canceled", err)
	}
	if _, err := ExhaustiveCoarseCtx(ctx, cancelOp, 1<<20); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExhaustiveCoarseCtx err = %v, want context.Canceled", err)
	}
}

func TestExhaustiveCtxMatchesUncancelled(t *testing.T) {
	mm := op.MatMul{Name: "small", M: 24, K: 16, L: 20}
	want, err := Exhaustive(mm, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExhaustiveCtx(context.Background(), mm, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if want.Access != got.Access || want.Dataflow != got.Dataflow {
		t.Fatalf("ExhaustiveCtx diverged: %+v vs %+v", got, want)
	}
}
