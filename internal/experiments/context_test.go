package experiments

import (
	"context"
	"errors"
	"testing"

	"fusecu/internal/op"
)

func TestFig9CtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Fig9Ctx(ctx, []op.MatMul{{Name: "p", M: 64, K: 48, L: 48}}, []int64{4096}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig9Ctx err = %v, want context.Canceled", err)
	}
}
