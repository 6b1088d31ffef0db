package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/op"
)

// The linear tile sweeps below are frozen test oracles: the P1 solves as
// they ran before the trip-count plateau walk, pricing every tile of the
// sweep. SingleNRACandidate and frontierCandidate must return the identical
// Candidate (dataflow, traffic and note) on every input.

// Exported for the grid tests in package core_test, which import
// internal/arch and internal/experiments.
var (
	ReferenceSingleNRACandidate = referenceSingleNRACandidate
	ReferenceFrontierCandidate  = referenceFrontierCandidate
)

// FrontierCandidate is frontierCandidate on a kernel compiled for mm.
func FrontierCandidate(mm op.MatMul, bufferSize int64, stationary dataflow.Tensor, c Constraint) (Candidate, bool) {
	k, err := compile(mm)
	if err != nil {
		return Candidate{}, false
	}
	return frontierCandidate(k, bufferSize, stationary, c)
}

// referenceSingleNRACandidate prices every T1 = 1…ext1.
func referenceSingleNRACandidate(mm op.MatMul, bufferSize int64, stationary dataflow.Tensor) (Candidate, bool) {
	if bufferSize < minimumBuffer {
		return Candidate{}, false
	}
	dd := stationary.Dims()
	d1, d2 := dd[0], dd[1]
	order := canonicalOrderForStationary(stationary)

	ext1, ext2 := int64(d1.Extent(mm)), int64(d2.Extent(mm))
	bestTiling, found := dataflow.Tiling{}, false
	var bestMA int64
	for t1 := int64(1); t1 <= ext1; t1++ {
		t2 := (bufferSize - t1) / (t1 + 1)
		if t2 < 1 {
			break
		}
		if t2 > ext2 {
			t2 = ext2
		}
		ti := dataflow.UnitTiling().
			WithTile(d1, int(t1)).WithTile(d2, int(t2))
		a := cost.MustEvaluate(mm, dataflow.Must(mm, order, ti))
		if a.Footprint > bufferSize {
			continue
		}
		if !found || a.Total < bestMA {
			found, bestMA, bestTiling = true, a.Total, ti
		}
	}
	if !found {
		return Candidate{}, false
	}
	df := dataflow.Must(mm, order, bestTiling)
	return Candidate{
		Dataflow:  df,
		Access:    cost.MustEvaluate(mm, df),
		Principle: 1,
		Note:      fmt.Sprintf("P1: %s stationary (%s)", stationary, stationary.Kind()),
	}, true
}

// referenceFrontierCandidate prices every T1 on the lattice q, 2q, …, cap1.
func referenceFrontierCandidate(mm op.MatMul, bufferSize int64, stationary dataflow.Tensor, c Constraint) (Candidate, bool) {
	dd := stationary.Dims()
	d1, d2 := dd[0], dd[1]
	third := irrelevantDimOf(stationary)
	order := canonicalOrderForStationary(stationary)

	ext1, ext2, ext3 := d1.Extent(mm), d2.Extent(mm), third.Extent(mm)
	t3 := minAllowedTile(c, ext3)
	if t3 == 0 {
		return Candidate{}, false
	}
	cap1, cap2 := ext1, ext2
	if m := c.MaxStationaryTile; m > 0 {
		if m < cap1 {
			cap1 = m
		}
		if m < cap2 {
			cap2 = m
		}
	}

	var (
		found      bool
		bestMA     int64
		bestTiling dataflow.Tiling
	)
	try := func(t1 int) {
		lim := (bufferSize - int64(t1)*int64(t3)) / (int64(t1) + int64(t3))
		if lim < 1 {
			return
		}
		if lim > int64(cap2) {
			lim = int64(cap2)
		}
		if c.Square && lim > int64(t1) && t1 < cap1 {
			lim = int64(t1)
		}
		t2 := c.snapDown(int(lim), ext2)
		if t2 == 0 {
			return
		}
		ti := dataflow.UnitTiling().
			WithTile(third, t3).WithTile(d1, t1).WithTile(d2, t2)
		a := cost.MustEvaluate(mm, dataflow.Must(mm, order, ti))
		if a.Footprint > bufferSize {
			return
		}
		if !found || a.Total < bestMA {
			found, bestMA, bestTiling = true, a.Total, ti
		}
	}
	q := c.quantum()
	for t1 := q; t1 < cap1; t1 += q {
		try(t1)
	}
	try(cap1)
	if !found {
		return Candidate{}, false
	}
	df := dataflow.Must(mm, order, bestTiling)
	acc := cost.MustEvaluate(mm, df)
	return Candidate{
		Dataflow:  df,
		Access:    acc,
		Principle: principleForNRA(acc.NRA),
		Note: fmt.Sprintf("constrained frontier: %s stationary (%s), quantum %d",
			stationary, stationary.Kind(), q),
	}, true
}

// snapDown returns the largest allowed tile ≤ v for the given extent, or 0
// when none exists: the oracles' partner snap. The walks snap through
// dataflow.Lattice.Down instead.
func (c Constraint) snapDown(v, extent int) int {
	if v >= extent {
		return extent
	}
	q := c.quantum()
	s := (v / q) * q
	if s < 1 {
		return 0
	}
	return s
}

// checkWalk compares both walks with their linear sweeps on one point: the
// P1 solve under every stationary, and the constrained frontier under c.
func checkWalk(t *testing.T, mm op.MatMul, bs int64, c Constraint) {
	t.Helper()
	for _, st := range dataflow.Tensors() {
		if c.TileQuantum <= 1 && !c.Square && c.MaxStationaryTile == 0 {
			got, gok := SingleNRACandidate(mm, bs, st)
			want, wok := referenceSingleNRACandidate(mm, bs, st)
			if gok != wok || got != want {
				t.Fatalf("%v BS=%d %s stationary: walk %+v (%v), sweep %+v (%v)", mm, bs, st, got, gok, want, wok)
			}
		}
		got, gok := FrontierCandidate(mm, bs, st, c)
		want, wok := referenceFrontierCandidate(mm, bs, st, c)
		if gok != wok || got != want {
			t.Fatalf("%v BS=%d %s stationary %+v: walk %+v (%v), sweep %+v (%v)", mm, bs, st, c, got, gok, want, wok)
		}
	}
}

// randomBuffer draws a buffer log-uniformly from [3, 2·IdealMA].
func randomBuffer(rng *rand.Rand, mm op.MatMul) int64 {
	return max(3, int64(math.Exp(rng.Float64()*math.Log(float64(2*mm.IdealMA())))))
}

func TestPlateauWalkMatchesLinearSweepRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	constraints := []Constraint{
		Unconstrained,
		{TileQuantum: 3},
		{TileQuantum: 8},
		{TileQuantum: 128},
		{TileQuantum: 8, MaxStationaryTile: 40},
		{TileQuantum: 128, MaxStationaryTile: 512},
		{TileQuantum: 3, Square: true},
		{TileQuantum: 128, Square: true, MaxStationaryTile: 512},
		{MaxStationaryTile: 17},
		{Square: true},
	}
	for i := 0; i < 1000; i++ {
		dim := func() int { return rng.Intn(1500) + 1 }
		mm := op.MatMul{M: dim(), K: dim(), L: dim()}
		bs := randomBuffer(rng, mm)
		for _, c := range constraints {
			checkWalk(t, mm, bs, c)
		}
	}
}

// The decode degenerates: a GEMV row (M = 1), a tiny reduction and a small
// output width against LLM-sized partners, at buffers from 3 to 32 Mi
// elements.
func TestPlateauWalkMatchesLinearSweepDecode(t *testing.T) {
	shapes := []op.MatMul{
		{Name: "gemv", M: 1, K: 4096, L: 11008},
		{Name: "gemv-t", M: 11008, K: 4096, L: 1},
		{Name: "tiny-k", M: 4096, K: 2, L: 4096},
		{Name: "k1", M: 2048, K: 1, L: 3000},
		{Name: "small-l", M: 4096, K: 4096, L: 8},
		{Name: "gqa", M: 1, K: 128, L: 4096},
	}
	constraints := []Constraint{
		Unconstrained,
		{TileQuantum: 8},
		{TileQuantum: 128, Square: true, MaxStationaryTile: 512},
	}
	for _, mm := range shapes {
		for bs := int64(3); bs <= 32<<20; bs *= 4 {
			for _, c := range constraints {
				checkWalk(t, mm, bs, c)
			}
		}
	}
}
