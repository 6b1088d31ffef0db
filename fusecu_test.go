package fusecu

import (
	"context"
	"errors"
	"testing"
)

// The facade test exercises the whole public surface end to end: optimize,
// classify, plan, search, evaluate a platform, and run the simulator.
func TestPublicAPIEndToEnd(t *testing.T) {
	mm := MatMul{Name: "proj", M: 1024, K: 768, L: 768}
	res, err := Optimize(mm, 512*1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.Access.NRA != TwoNRA {
		t.Fatalf("NRA = %v", res.Access.NRA)
	}
	if Classify(mm, 512*1024) != RegimeMedium {
		t.Fatal("regime misclassified")
	}

	chain, err := NewChain("attn",
		MatMul{Name: "QKt", M: 512, K: 64, L: 512},
		MatMul{Name: "SV", M: 512, K: 512, L: 64},
	)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanChain(chain, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Saving() <= 0 {
		t.Fatal("attention fusion saved nothing")
	}

	pair, err := NewFusedPair(chain.Ops[0], chain.Ops[1])
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecideFusion(pair, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Fuse {
		t.Fatal("profitable fusion rejected")
	}

	sr, err := SearchOptimize(mm, 512*1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Access.Total < res.Access.Total {
		t.Fatalf("search %d beat the principles %d", sr.Access.Total, res.Access.Total)
	}

	if len(Platforms()) != 5 || len(Models()) != 7 {
		t.Fatal("platform or model set wrong")
	}
	p, err := PlatformByName("FuseCU")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ModelByName("BERT")
	if err != nil {
		t.Fatal(err)
	}
	cfg.SeqLen, cfg.Batch = 256, 2 // shrink for test speed
	w, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.EvaluateWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if pr.MA <= 0 || pr.Cycles <= 0 {
		t.Fatalf("degenerate platform result %+v", pr)
	}

	if LLaMA2WithSeq(512).SeqLen != 512 {
		t.Fatal("LLaMA2 seq knob broken")
	}

	f, err := NewFabric(4)
	if err != nil {
		t.Fatal(err)
	}
	a := NewMatrix(6, 3).Seq(1)
	b := NewMatrix(3, 6).Seq(2)
	d := NewMatrix(6, 4).Seq(3)
	got, err := f.TileFused(a, b, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MatMulReference(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MatMulReference(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatal("fused result shape wrong")
	}
	for i := range want.Data {
		if diff := got.Data[i] - want.Data[i]; diff > 1e-6 || diff < -1e-6 {
			t.Fatal("fused result diverges from reference")
		}
	}
}

// TestPublicErrorSentinels proves the façade's sentinels classify failures
// produced anywhere in the library.
func TestPublicErrorSentinels(t *testing.T) {
	if _, err := Optimize(MatMul{Name: "bad", M: 0, K: 8, L: 8}, 64); !errors.Is(err, ErrInvalidOperator) {
		t.Fatalf("Optimize(bad op) = %v, want ErrInvalidOperator", err)
	}
	if _, err := Optimize(MatMul{Name: "x", M: 8, K: 8, L: 8}, 1); !errors.Is(err, ErrBufferTooSmall) {
		t.Fatalf("Optimize(tiny buffer) = %v, want ErrBufferTooSmall", err)
	}
	if _, err := NewChain("broken",
		MatMul{Name: "a", M: 8, K: 8, L: 8},
		MatMul{Name: "b", M: 9, K: 9, L: 9},
	); !errors.Is(err, ErrInvalidChain) {
		t.Fatalf("NewChain(mismatched) err = %v, want ErrInvalidChain", err)
	}
	if _, err := PlatformByName("Cerebras"); !errors.Is(err, ErrUnknownPlatform) {
		t.Fatalf("PlatformByName = %v, want ErrUnknownPlatform", err)
	}
	if _, err := ModelByName("GPT-9"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("ModelByName = %v, want ErrUnknownModel", err)
	}
	if _, err := SearchOptimize(MatMul{Name: "x", M: 8, K: 8, L: 8}, 1, 1); !errors.Is(err, ErrBufferTooSmall) {
		t.Fatalf("SearchOptimize(tiny buffer) = %v, want ErrBufferTooSmall", err)
	}
}

// TestSearchOptimizeCtx proves the context variant matches the sequential
// baseline bit for bit and honors cancellation.
func TestSearchOptimizeCtx(t *testing.T) {
	mm := MatMul{Name: "proj", M: 96, K: 64, L: 80}
	want, err := SearchOptimize(mm, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SearchOptimizeCtx(context.Background(), mm, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Access.Total != want.Access.Total || got.Dataflow != want.Dataflow {
		t.Fatalf("ctx search diverged: %+v vs %+v", got, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SearchOptimizeCtx(ctx, mm, 4096, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled search err = %v, want context.Canceled", err)
	}
}
