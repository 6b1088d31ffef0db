package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/fusion"
	"fusecu/internal/op"
)

func attnPair(t *testing.T, seq, dh int) fusion.Pair {
	t.Helper()
	p, err := fusion.NewPair(
		op.MatMul{Name: "QKt", M: seq, K: dh, L: seq},
		op.MatMul{Name: "SV", M: seq, K: seq, L: dh},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDecideFusionSameNRAProfitable(t *testing.T) {
	// Attention pair with a medium buffer: both ops land in the same NRA
	// class and fusing removes the seq×seq intermediate.
	p := attnPair(t, 512, 64)
	d, err := DecideFusion(p, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if !d.SameNRA {
		t.Fatalf("NRA mismatch: %s vs %s", d.FirstNRA, d.SecondNRA)
	}
	if !d.Fuse {
		t.Fatalf("profitable fusion rejected: gain=%d", d.Gain)
	}
	if d.Gain <= 0 || d.FusedMA+d.Gain != d.UnfusedMA {
		t.Fatalf("gain accounting wrong: %+v", d)
	}
	if d.Fused.Access.Footprint > 64*1024 {
		t.Fatal("fused footprint overflows buffer")
	}
}

func TestDecideFusionMixedNRARejected(t *testing.T) {
	// Force different regimes: the producer is huge (Single-NRA under this
	// buffer), the consumer tiny (Three-NRA: its smallest tensor fits).
	pair, err := fusion.NewPair(
		op.MatMul{M: 2048, K: 2048, L: 2048},
		op.MatMul{M: 2048, K: 2048, L: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	bs := int64(64 * 1024)
	d, err := DecideFusion(pair, bs)
	if err != nil {
		t.Fatal(err)
	}
	if d.SameNRA {
		t.Skipf("shapes landed in same NRA (%s); pick different shapes", d.FirstNRA)
	}
	if d.Fuse {
		t.Fatal("mixed-NRA fusion accepted, violating Principle 4")
	}
}

func TestForcedFusionMeasuresRegression(t *testing.T) {
	pair, err := fusion.NewPair(
		op.MatMul{M: 2048, K: 2048, L: 2048},
		op.MatMul{M: 2048, K: 2048, L: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ForcedFusion(pair, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Fuse {
		t.Skip("no feasible fused dataflow to force")
	}
	// ForcedFusion bypasses the Principle 4 gate: it must report a fused
	// dataflow and consistent accounting even for mixed-NRA pairs, so
	// ablations can measure the regression (or occasional win) directly.
	if d.FusedMA <= 0 {
		t.Fatal("forced fusion reported no fused cost")
	}
	if d.Gain != d.UnfusedMA-d.FusedMA {
		t.Fatalf("gain accounting inconsistent: %+v", d)
	}
	if d.Fused.Access.Footprint > 64*1024 {
		t.Fatal("forced fused footprint overflows the buffer")
	}
}

func TestPlanChainFusesAttention(t *testing.T) {
	chain, err := op.NewChain("attention",
		op.MatMul{Name: "QKt", M: 512, K: 64, L: 512},
		op.MatMul{Name: "SV", M: 512, K: 512, L: 64},
	)
	if err != nil {
		t.Fatal(err)
	}
	chain.WithElementwise(0, "softmax")
	plan, err := PlanChain(chain, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 1 || !plan.Groups[0].Fusedp() {
		t.Fatalf("expected one fused group, got %v", plan.Groups)
	}
	if plan.TotalMA >= plan.UnfusedMA {
		t.Fatalf("fusion did not help: %d vs %d", plan.TotalMA, plan.UnfusedMA)
	}
	if plan.Saving() <= 0 || plan.Saving() >= 1 {
		t.Fatalf("saving = %f out of range", plan.Saving())
	}
	if len(plan.Decisions) != 1 || !plan.Decisions[0].Fuse {
		t.Fatal("decision log missing or wrong")
	}
}

func TestPlanChainSingleOp(t *testing.T) {
	chain, err := op.NewChain("one", op.MatMul{M: 64, K: 64, L: 64})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanChain(chain, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 1 || plan.Groups[0].Fusedp() {
		t.Fatalf("groups = %v", plan.Groups)
	}
	if plan.TotalMA != plan.UnfusedMA {
		t.Fatal("single op plan should equal unfused")
	}
}

func TestPlanChainDPPicksDisjointPairs(t *testing.T) {
	// A four-op chain: the DP must pick a disjoint pairing, and the total
	// must never exceed the unfused baseline.
	chain, err := op.NewChain("ffn4",
		op.MatMul{M: 256, K: 64, L: 256},
		op.MatMul{M: 256, K: 256, L: 64},
		op.MatMul{M: 256, K: 64, L: 256},
		op.MatMul{M: 256, K: 256, L: 64},
	)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanChain(chain, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	next := 0
	for _, g := range plan.Groups {
		if g.Start != next {
			t.Fatalf("groups not contiguous: %v", plan.Groups)
		}
		next = g.Start + g.Len
		covered += g.Len
	}
	if covered != 4 {
		t.Fatalf("groups cover %d ops, want 4", covered)
	}
	if plan.TotalMA > plan.UnfusedMA {
		t.Fatalf("plan worse than unfused: %d > %d", plan.TotalMA, plan.UnfusedMA)
	}
}

func TestPlanChainInvalidChain(t *testing.T) {
	bad := &op.Chain{Name: "bad", Ops: []op.MatMul{{M: 2, K: 2, L: 2}, {M: 3, K: 2, L: 2}}, Elementwise: make([]op.Elementwise, 1)}
	if _, err := PlanChain(bad, 1024); err == nil {
		t.Fatal("invalid chain accepted")
	}
	for _, mm := range overflowingOps() {
		huge := &op.Chain{Name: "huge", Ops: []op.MatMul{mm}}
		if _, err := PlanChain(huge, 1<<20); !errors.Is(err, errs.ErrInvalidOperator) {
			t.Errorf("%v: err = %v, want ErrInvalidOperator", mm, err)
		}
	}
	// Each operator fits int64 alone; the chain's summed traffic does not.
	cube := op.MatMul{M: 1_400_000, K: 1_400_000, L: 1_400_000}
	pair := &op.Chain{Name: "pair", Ops: []op.MatMul{cube, cube}, Elementwise: make([]op.Elementwise, 1)}
	if _, err := PlanChain(pair, 3); !errors.Is(err, errs.ErrInvalidOperator) {
		t.Errorf("two %v: err = %v, want ErrInvalidOperator", cube, err)
	}
}

// A long, thin operator prices a few hundred tiles, not one per plateau of
// its 2^61 rows: the P1 walks stop at the first tile the buffer cannot
// hold. A walk that went on to the end would take minutes here. The
// one-operator plan's total, just above 2^62, also pins the chain DP's
// sentinel above every total a valid chain can reach.
func TestLongThinOperatorStopsAtBuffer(t *testing.T) {
	thin := op.MatMul{M: 1 << 61, K: 1, L: 1}
	half := op.MatMul{M: 1 << 60, K: 1, L: 1}
	single, err := op.NewChain("thin", thin)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := op.NewChain("halves", half, half)
	if err != nil {
		t.Fatal(err)
	}
	constraints := []Constraint{
		Unconstrained,
		{TileQuantum: 8},
		{TileQuantum: 4, Square: true},
		{TileQuantum: 128, FusedTileAlign: 128},
	}
	errc := make(chan error, 1)
	go func() {
		errc <- func() error {
			res, err := Optimize(thin, 1024)
			if err != nil {
				return err
			}
			if res.Access.Total < thin.IdealMA() {
				return fmt.Errorf("Optimize: Total %d below IdealMA %d", res.Access.Total, thin.IdealMA())
			}
			for _, c := range constraints {
				if _, err := OptimizeConstrained(thin, 1024, c); err != nil {
					return err
				}
				for _, chain := range []*op.Chain{single, fused} {
					plan, err := PlanChainOpts(chain, 1024, PlanOptions{Constraint: c, AllowFusion: true})
					if err != nil {
						return err
					}
					var sum int64
					for _, g := range plan.Groups {
						sum += g.MA
					}
					if plan.TotalMA != sum || plan.TotalMA < chain.Ops[0].IdealMA() {
						return fmt.Errorf("%s under %+v: TotalMA %d, groups sum to %d", chain.Name, c, plan.TotalMA, sum)
					}
				}
			}
			return nil
		}()
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("still planning after 10 s: a tile walk does not stop at the buffer")
	}
}

func TestPlanChainBufferTooSmall(t *testing.T) {
	chain, _ := op.NewChain("c", op.MatMul{M: 4, K: 4, L: 4})
	if _, err := PlanChain(chain, 1); err == nil {
		t.Fatal("impossible buffer accepted")
	}
}

// With a buffer large enough for Three-NRA residency of the intermediate,
// the fused plan approaches the fused ideal.
func TestPlanChainLargeBufferReachesFusedIdeal(t *testing.T) {
	chain, err := op.NewChain("attn",
		op.MatMul{Name: "QKt", M: 128, K: 32, L: 128},
		op.MatMul{Name: "SV", M: 128, K: 128, L: 32},
	)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanChain(chain, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pair, _ := fusion.NewPair(chain.Ops[0], chain.Ops[1])
	if plan.TotalMA != pair.FusedIdealMA() {
		t.Fatalf("TotalMA = %d, want fused ideal %d", plan.TotalMA, pair.FusedIdealMA())
	}
}

func TestGroupStringer(t *testing.T) {
	g := Group{Start: 0, Len: 1, MA: 10, Intra: &Result{}}
	if g.String() == "" {
		t.Fatal("empty group string")
	}
	fc := fusion.Candidate{}
	g2 := Group{Start: 1, Len: 2, MA: 20, Fused: &fc}
	if g2.String() == "" {
		t.Fatal("empty fused group string")
	}
}

func TestDecisionNRAClassesReported(t *testing.T) {
	p := attnPair(t, 256, 64)
	d, err := DecideFusion(p, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[dataflow.NRAClass]bool{dataflow.SingleNRA: true, dataflow.TwoNRA: true, dataflow.ThreeNRA: true}
	if !valid[d.FirstNRA] || !valid[d.SecondNRA] {
		t.Fatalf("NRA classes not reported: %+v", d)
	}
}
