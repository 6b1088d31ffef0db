package fusion

import (
	"math"
	"math/rand"
	"testing"

	"fusecu/internal/model"
	"fusecu/internal/op"
)

// referenceTileOSISAligned is a frozen test oracle: the tile-fusion
// construction as it ran before the trip-count plateau walk, pricing every
// T_M = 1…M (or every align multiple below M, then M).
func referenceTileOSISAligned(p Pair, bufferSize int64, align int) (Candidate, bool) {
	if align < 1 {
		align = 1
	}
	M, L := int64(p.M()), int64(p.L())
	best, found := FusedDataflow{}, false
	var bestMA int64
	try := func(tm int64) {
		if tm < 1 || tm > M {
			return
		}
		tl := (bufferSize - 2*tm) / (tm + 2)
		if tl < 1 {
			return
		}
		if tl > L {
			tl = L
		}
		if tl < L && int64(align) > 1 {
			if snapped := (tl / int64(align)) * int64(align); snapped >= 1 {
				tl = snapped
			}
		}
		fd := FusedDataflow{Pattern: PatternTileOSIS, TM: int(tm), TK: 1, TL: int(tl), TN: 1}
		a, err := Evaluate(p, fd)
		if err != nil || a.Footprint > bufferSize {
			return
		}
		if !found || a.Total < bestMA {
			found, bestMA, best = true, a.Total, fd
		}
	}
	if align == 1 {
		for tm := int64(1); tm <= M; tm++ {
			try(tm)
		}
	} else {
		for tm := int64(align); tm < M; tm += int64(align) {
			try(tm)
		}
		try(M)
	}
	if !found {
		return Candidate{}, false
	}
	a, err := Evaluate(p, best)
	if err != nil {
		return Candidate{}, false
	}
	return Candidate{Dataflow: best, Access: a, Note: "tile fusion: OS producer → IS consumer"}, true
}

var walkAligns = []int{1, 5, 128}

func checkTileOSISWalk(t *testing.T, p Pair, bs int64) {
	t.Helper()
	for _, align := range walkAligns {
		got, gok := ConstructTileOSISAligned(p, bs, align)
		want, wok := referenceTileOSISAligned(p, bs, align)
		if gok != wok || got != want {
			t.Fatalf("%v BS=%d align %d: walk %+v (%v), sweep %+v (%v)", p, bs, align, got, gok, want, wok)
		}
	}
}

func TestTileOSISWalkMatchesLinearSweepRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		dim := func() int { return rng.Intn(700) + 1 }
		m, l := dim(), dim()
		p, err := NewPair(op.MatMul{M: m, K: dim(), L: l}, op.MatMul{M: m, K: l, L: dim()})
		if err != nil {
			t.Fatal(err)
		}
		// A log-uniform buffer in [3, 2·FusedIdealMA].
		bs := int64(math.Exp(rng.Float64() * math.Log(float64(2*p.FusedIdealMA()))))
		checkTileOSISWalk(t, p, max(3, bs))
	}
}

// Every adjacent pair of the Table-II and Fig. 11 chains at every Fig. 9
// buffer (32 Ki–32 Mi elements).
func TestTileOSISWalkMatchesLinearSweepLLM(t *testing.T) {
	configs := model.TableII()
	for _, s := range model.Fig11SeqLengths() {
		configs = append(configs, model.LLaMA2WithSeq(s))
	}
	seen := map[Pair]bool{}
	for _, cfg := range configs {
		w, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, wc := range w.Chains {
			for i := 0; i+1 < wc.Chain.Len(); i++ {
				p, err := NewPair(wc.Chain.Ops[i], wc.Chain.Ops[i+1])
				if err != nil {
					t.Fatal(err)
				}
				p.First.Name, p.Second.Name = "", ""
				if seen[p] {
					continue
				}
				seen[p] = true
				for bs := int64(32 << 10); bs <= 32<<20; bs *= 2 {
					checkTileOSISWalk(t, p, bs)
				}
			}
		}
	}
}
