package core_test

import (
	"math"
	"math/rand"
	"testing"

	"fusecu/internal/core"
	"fusecu/internal/dataflow"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// The run walk against the frozen linear sweeps at extents where a run of
// T_d2's trip count spans many plateaus of T_d1's: 2·10^4 seeded points with
// log-uniform extents up to 2·10^4, quanta up to 200, random stationary-tile
// caps, and a fifth each of decode rows (M ≤ 3) and K = 1. Unconstrained
// points also check the P1 solve.
func TestFrontierWalkMatchesSweepAtScale(t *testing.T) {
	if raceEnabled || invariant.Enabled {
		t.Skip("linear sweeps at these extents are too slow under -race or fusecuchecks")
	}
	rng := rand.New(rand.NewSource(23))
	logUniform := func(hi float64) int { return int(math.Exp(rng.Float64() * math.Log(hi))) }
	for i := 0; i < 20000; i++ {
		mm := op.MatMul{M: logUniform(2e4), K: logUniform(2e4), L: logUniform(2e4)}
		switch i % 5 {
		case 0:
			mm.M = rng.Intn(3) + 1
		case 1:
			mm.K = 1
		}
		c := core.Constraint{TileQuantum: rng.Intn(200) + 1, Square: rng.Intn(8) == 0}
		if rng.Intn(4) == 0 {
			c.TileQuantum = 1
		}
		if rng.Intn(2) == 0 {
			c.MaxStationaryTile = logUniform(2e4)
		}
		bs := max(3, int64(math.Exp(rng.Float64()*math.Log(float64(2*mm.IdealMA())))))
		for _, st := range dataflow.Tensors() {
			got, gok := core.FrontierCandidate(mm, bs, st, c)
			want, wok := core.ReferenceFrontierCandidate(mm, bs, st, c)
			if gok != wok || got != want {
				t.Fatalf("%v BS=%d %s stationary %+v: walk %+v (%v), sweep %+v (%v)", mm, bs, st, c, got, gok, want, wok)
			}
			if c.TileQuantum == 1 && c.MaxStationaryTile == 0 && !c.Square {
				got, gok := core.SingleNRACandidate(mm, bs, st)
				want, wok := core.ReferenceSingleNRACandidate(mm, bs, st)
				if gok != wok || got != want {
					t.Fatalf("%v BS=%d %s stationary: P1 walk %+v (%v), sweep %+v (%v)", mm, bs, st, got, gok, want, wok)
				}
			}
		}
	}
}
