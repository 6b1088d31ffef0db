package experiments

import (
	"context"
	"errors"
	"testing"

	"fusecu/internal/op"
)

func TestFig9ParallelCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Fig9ParallelCtx(ctx, []op.MatMul{{Name: "p", M: 64, K: 48, L: 48}}, []int64{4096}, 1, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFig9ParallelCtxMatchesSequential(t *testing.T) {
	ops := []op.MatMul{{Name: "p", M: 96, K: 48, L: 64}}
	buffers := []int64{2048, 4096, 8192}
	seq, err := Fig9(ops, buffers, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig9ParallelCtx(context.Background(), ops, buffers, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		for j := range seq[i].Points {
			a, b := seq[i].Points[j], par[i].Points[j]
			if a != b {
				t.Fatalf("point %d/%d diverged: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

func TestFig9CtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Fig9Ctx(ctx, []op.MatMul{{Name: "p", M: 64, K: 48, L: 48}}, []int64{4096}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig9Ctx err = %v, want context.Canceled", err)
	}
}

func TestFig9SweepCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Fig9SweepCtx(ctx, []op.MatMul{{Name: "p", M: 64, K: 48, L: 48}}, []int64{4096}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig9SweepCtx err = %v, want context.Canceled", err)
	}
}
