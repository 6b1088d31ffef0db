package fusion

import (
	"math"
	"math/rand"
	"testing"

	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// raceEnabled is set by race_test.go under -race. Its instrumentation, like
// the fusecuchecks assertions, slows the linear sweeps below to minutes.
var raceEnabled bool

// The run walk against the frozen linear sweep at extents where a run of
// T_L's trip count spans many plateaus of T_M's: 10^4 seeded pairs with
// log-uniform extents up to 2·10^4, a fifth of them decode rows (M ≤ 3), at
// aligns from 1 to past FuseCU's 128.
func TestTileOSISWalkMatchesSweepAtScale(t *testing.T) {
	if raceEnabled || invariant.Enabled {
		t.Skip("linear sweeps at these extents are too slow under -race or fusecuchecks")
	}
	rng := rand.New(rand.NewSource(29))
	logUniform := func(hi float64) int { return int(math.Exp(rng.Float64() * math.Log(hi))) }
	for i := 0; i < 10000; i++ {
		m, l := logUniform(2e4), logUniform(2e4)
		if i%5 == 0 {
			m = rng.Intn(3) + 1
		}
		p, err := NewPair(op.MatMul{M: m, K: logUniform(2e4), L: l}, op.MatMul{M: m, K: l, L: logUniform(2e4)})
		if err != nil {
			t.Fatal(err)
		}
		bs := max(3, int64(math.Exp(rng.Float64()*math.Log(float64(2*p.FusedIdealMA())))))
		for _, align := range []int{1, 2, 3, 7, 16, 100, 128} {
			got, gok := ConstructTileOSISAligned(p, bs, align)
			want, wok := referenceTileOSISAligned(p, bs, align)
			if gok != wok || got != want {
				t.Fatalf("%v BS=%d align %d: walk %+v (%v), sweep %+v (%v)", p, bs, align, got, gok, want, wok)
			}
		}
	}
}
