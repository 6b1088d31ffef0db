package dataflow

import "fusecu/internal/invariant"

// This file holds the tile walks the principle optimizer (internal/core) and
// the fused tile-OS/IS construction (internal/fusion) share. Both solve the
// same problem: one tile x rises along a lattice, its partner tile is the
// largest the buffer admits beside it, and the traffic depends on the tiles
// only through their trip counts ceil(ext/tile).

// NextPlateauTile steps a one-dimensional tile sweep from one trip-count
// plateau to the next. The sweep runs over the lattice of quantum multiples
// below limit, plus limit itself (1 ≤ limit ≤ ext), starting at
// min(quantum, limit). NextPlateauTile returns the smallest lattice tile
// above t whose trip count ceil(ext/tile) is below t's — the left endpoint
// of the next plateau — and false once no lattice tile lowers the trip
// count any further. Frontier.Walk uses it to resume after each run.
func NextPlateauTile(ext, t, quantum, limit int) (int, bool) {
	if t >= limit {
		return 0, false
	}
	n := ceilDiv(ext, t) // ≥ 2, since t < limit ≤ ext
	next := ceilDiv(ceilDiv(ext, n-1), quantum) * quantum
	if next < limit {
		return next, true
	}
	if ceilDiv(ext, limit) == n {
		return 0, false // limit sits on t's plateau
	}
	return limit, true
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// A Lattice is the set of tiles a dimension of extent Ext may take: the
// multiples of Quantum below Limit, Limit itself (1 ≤ Limit ≤ Ext), and,
// when Fine is set, every tile below Quantum.
type Lattice struct {
	Ext, Quantum, Limit int
	Fine                bool
}

// Down returns the largest lattice tile at most v, or 0 when there is none.
func (l Lattice) Down(v int64) int {
	switch {
	case v < 1:
		return 0
	case v >= int64(l.Limit):
		return l.Limit
	case l.Quantum == 1 || l.Fine && v < int64(l.Quantum):
		return int(v)
	}
	return int(v) / l.Quantum * l.Quantum
}

// plateauStart returns the smallest lattice tile with tile t's trip count,
// for a lattice tile t.
func (l Lattice) plateauStart(t int) int {
	v := ceilDiv(l.Ext, ceilDiv(l.Ext, t)) // the smallest tile of t's plateau
	if l.Quantum == 1 || l.Fine && v < l.Quantum {
		return v
	}
	return min(ceilDiv(v, l.Quantum)*l.Quantum, l.Limit)
}

// A Frontier is a two-tile buffer frontier. Tile x walks lattice X upward
// from min(X.Quantum, X.Limit) (X is not Fine); its partner y(x) is the
// largest tile of lattice Y whose footprint x·y + C·(x+y) stays within
// Budget, so y(x) never grows with x.
type Frontier struct {
	X, Y      Lattice
	C, Budget int64
}

// Room returns the largest y, on no lattice, with x·y + C·(x+y) ≤ Budget.
// The footprint is symmetric, so Room(y) likewise bounds x.
func (f *Frontier) Room(x int) int64 {
	return (f.Budget - f.C*int64(x)) / (int64(x) + f.C)
}

func (f *Frontier) partner(x int) int { return f.Y.Down(f.Room(x)) }

// Walk returns the pair (x, y(x)) that a sweep of every lattice-X tile in
// increasing order keeps when it keeps only strict improvements of
// price(x, y(x)). It reports false when the smallest x has no partner. Like
// the sweep, it stops at the first x without a partner: the room beside x
// only shrinks as x grows, so no larger x has one either.
//
// price must depend on its tiles only through the trip counts
// ceil(X.Ext/x) and ceil(Y.Ext/y) and never fall as either grows, as the
// cost model's Total does. Walk then prices one point per run of y's trip
// count instead of one per plateau of x's:
//
//   - From x, let ys be the smallest Y tile with y(x)'s trip count. The run
//     ends at last, the largest X tile whose footprint admits ys (closed
//     form, by symmetry Room(ys)); every tile of [x, last] keeps that trip
//     count.
//   - Along the run only x's trip count changes, and it falls, so the price
//     never rises. Walk prices the first tile of last's plateau, clipped to
//     x: the run's minimum.
//   - The rest of last's plateau keeps x's trip count and raises y's, so it
//     cannot improve on last. The walk resumes on the next plateau.
//
// In the winning run the minimizers form a suffix, and the sweep keeps its
// first tile. When the tile before the priced one ties (a flat cell, where
// a trip count moves no traffic), Walk binary-searches the run for it. In
// all, Walk prices at most min(plateaus, runs) + 2 + ⌈log₂ X.Ext⌉ points.
func (f *Frontier) Walk(price func(x, y int) int64) (int, int, bool) {
	var (
		found     bool
		best      int64
		start, at int // the winning run's first tile and its priced tile
	)
	for x, more := min(f.X.Quantum, f.X.Limit), true; more; {
		y := f.partner(x)
		if y == 0 {
			break
		}
		last := f.X.Down(f.Room(f.Y.plateauStart(y)))
		invariant.Assert(last >= x, "run of x=%d ends before it, at %d", x, last)
		p, py := x, y
		if s := f.X.plateauStart(last); s > x {
			p, py = s, f.partner(s)
		}
		if v := price(p, py); !found || v < best {
			found, best, start, at = true, v, x, p
		}
		x, more = NextPlateauTile(f.X.Ext, last, f.X.Quantum, f.X.Limit)
	}
	if !found {
		return 0, 0, false
	}
	// The run's tiles below at are quantum multiples (all lie below Limit).
	q := f.X.Quantum
	if prev := (at - 1) / q * q; prev >= start && price(prev, f.partner(prev)) == best {
		lo, hi := start/q, prev/q // the suffix starts at a multiple in [lo, hi]·q
		for lo < hi {
			if mid := lo + (hi-lo)/2; price(mid*q, f.partner(mid*q)) == best {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		at = lo * q
	}
	return at, f.partner(at), true
}
