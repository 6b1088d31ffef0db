package dataflow

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// Down returns the largest lattice tile at most v, found by scanning every
// tile.
func TestLatticeDownMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		ext := rng.Intn(300) + 1
		l := Lattice{Ext: ext, Quantum: rng.Intn(40) + 1, Limit: rng.Intn(ext) + 1, Fine: rng.Intn(2) == 0}
		allowed := func(v int) bool {
			return v == l.Limit || v < l.Limit && (v%l.Quantum == 0 || l.Fine && v < l.Quantum)
		}
		for v := -2; v <= ext+2; v++ {
			want := 0
			for u := min(v, l.Limit); u >= 1; u-- {
				if allowed(u) {
					want = u
					break
				}
			}
			if got := l.Down(int64(v)); got != want {
				t.Fatalf("%+v: Down(%d) = %d, want %d", l, v, got, want)
			}
		}
	}
}

// sweepFrontier is the linear sweep Walk must reproduce: every lattice-X
// tile in increasing order, stopping at the first without a partner, keeping
// strict improvements. It also counts the distinct trip counts of x
// (plateaus) and of y (runs) it visits.
func sweepFrontier(f Frontier, price func(x, y int) int64) (bx, by int, ok bool, plateaus, runs int) {
	var best int64
	lastNX, lastNY := 0, 0 // x's trip count only falls and y's only rises
	for x := min(f.X.Quantum, f.X.Limit); ; x = min(x+f.X.Quantum, f.X.Limit) {
		y := f.Y.Down(f.Room(x))
		if y == 0 {
			break
		}
		if nx := ceilDiv(f.X.Ext, x); nx != lastNX {
			plateaus, lastNX = plateaus+1, nx
		}
		if ny := ceilDiv(f.Y.Ext, y); ny != lastNY {
			runs, lastNY = runs+1, ny
		}
		if v := price(x, y); !ok || v < best {
			bx, by, ok, best = x, y, true, v
		}
		if x == f.X.Limit {
			break
		}
	}
	return bx, by, ok, plateaus, runs
}

// frontierPrices are traffic shapes that depend on the tiles only through
// their trip counts and never fall as one grows. Several have flat cells,
// where a trip count moves no traffic, so minimizers tie.
var frontierPrices = []struct {
	name  string
	price func(nx, ny int64) int64
}{
	{"affine", func(nx, ny int64) int64 { return 7*nx + 5*ny }},
	{"flat-until-both-tile", func(nx, ny int64) int64 {
		if nx > 1 && ny > 1 {
			return 3*nx + 2*ny
		}
		return 1
	}},
	{"cost-model-like", func(nx, ny int64) int64 {
		a, b := int64(1), int64(1)
		if nx > 1 && ny > 1 {
			a, b = ny, nx
		}
		return 40*a + 9*b + 3*nx
	}},
	{"constant", func(nx, ny int64) int64 { return 11 }},
	{"max", func(nx, ny int64) int64 { return max(nx, 2*ny) }},
	{"coarse", func(nx, ny int64) int64 { return int64(math.Sqrt(float64(nx))) + ny/4 }},
}

func randomFrontier(rng *rand.Rand) Frontier {
	logUniform := func(hi float64) int { return int(math.Exp(rng.Float64() * math.Log(hi))) }
	lattice := func(fine bool) Lattice {
		ext := logUniform(2e4)
		q := 1
		if rng.Intn(3) > 0 {
			q = logUniform(200)
		}
		limit := ext
		if rng.Intn(3) == 0 {
			limit = rng.Intn(ext) + 1
		}
		return Lattice{Ext: ext, Quantum: q, Limit: limit, Fine: fine}
	}
	f := Frontier{X: lattice(false), Y: lattice(rng.Intn(2) == 0), C: int64(logUniform(200))}
	// A budget from below the smallest footprint to well above the largest.
	f.Budget = int64(logUniform(4 * float64(f.X.Ext+int(f.C)) * float64(f.Y.Ext+int(f.C))))
	return f
}

// Walk returns the linear sweep's pair on random frontiers and traffic
// shapes, and prices at most min(plateaus, runs) + 2 + ⌈log₂ X.Ext⌉ points.
func TestFrontierWalkMatchesSweepAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10000; i++ {
		f := randomFrontier(rng)
		for _, pr := range frontierPrices {
			price := func(x, y int) int64 {
				return pr.price(int64(ceilDiv(f.X.Ext, x)), int64(ceilDiv(f.Y.Ext, y)))
			}
			wx, wy, wok, plateaus, runs := sweepFrontier(f, price)
			calls := 0
			gx, gy, gok := f.Walk(func(x, y int) int64 {
				calls++
				if want := f.Y.Down(f.Room(x)); y != want {
					t.Fatalf("%+v %s: priced x=%d with y=%d, its partner is %d", f, pr.name, x, y, want)
				}
				return price(x, y)
			})
			if gx != wx || gy != wy || gok != wok {
				t.Fatalf("%+v %s: walk (%d, %d, %v), sweep (%d, %d, %v)", f, pr.name, gx, gy, gok, wx, wy, wok)
			}
			if bound := min(plateaus, runs) + 2 + bits.Len(uint(f.X.Ext-1)); calls > bound {
				t.Fatalf("%+v %s: %d pricings, bound %d (%d plateaus, %d runs)", f, pr.name, calls, bound, plateaus, runs)
			}
		}
	}
}
