package search

import (
	"context"
	"fmt"
	"slices"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/faultinject"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// SiteAnalytic is the fault-injection point visited once per analytic
// boundary candidate, before the shared per-evaluation SiteEval fires. Chaos
// tests arm it to prove the analytic engine's panic-containment boundary;
// the disarmed cost is one atomic load per candidate.
const SiteAnalytic = "search.analytic"

// This file is the canonical walk, the exact engine behind every
// /v1/search lattice answer: auto and exhaustive walk the full integer
// lattice, coarse walks the TileGrid lattice (mirroring FADiff's
// observation that fusion-aware schedules optimize by their cost structure
// rather than by stochastic search). The cost model is piecewise affine in
// the trip counts n_D = ceil(D/T_D): fixing which trips exceed one — an
// "activity cell", eight per loop order — freezes every streaming
// condition, and cost.BatchEval.Regime exposes the cell's exact form
//
//	Total = base + coef_M·n_M + coef_K·n_K + coef_L·n_L
//
// with each coefficient either zero or a full tensor size. The innermost
// dim's coefficient is structurally zero (its tensor has no inner evicting
// loop), so every cell has at most two free positive-coefficient tiles and
// the per-cell optimization collapses:
//
//   - A non-multi dim is pinned at T = extent (n = 1 requires T ≥ extent).
//   - A multi dim with zero coefficient takes T = 1: it cannot change the
//     cell's cost and T = 1 maximizes the buffer slack left to the others.
//   - One free tile x under footprint x·a + x·b + a·b ≤ BS is monotone:
//     cost falls as x grows, so the single candidate is the largest
//     feasible x (clamped to extent−1 to stay inside the cell).
//   - Two free tiles (x, y): the optimum lies on the footprint
//     constraint's Pareto frontier. For any trip count n_x, sliding x down
//     to its plateau's left endpoint keeps the cost term fixed while
//     loosening the constraint on y, so WLOG x is a left endpoint and y is
//     the largest feasible partner. Walking every left endpoint of the
//     smaller extent is exact, and it prices at most 2√ext_x ≤ 2√MaxInt32
//     candidates per cell, since cost.NewBatchEval rejects larger extents.
//
// Every free tile is then snapped to the smallest allowed tile with the
// same trip count (snap). Total depends only on the loop order and the trip
// counts, and a smaller tile only loosens the footprint, so the canonical
// optimum — the smallest (order, T_M, T_K, T_L) among the optima, which is
// what the frozen reference scans return — has every tile on a plateau's
// smallest allowed value and sits in a cell the walk visits, where the walk
// prices exactly that point (DESIGN §21). The fold keeps the same canonical
// tie-break, so the walk returns the reference scans' Dataflow and Access
// bit for bit while pricing a few hundred candidates.
//
// Candidates are priced one at a time through the compiled kernel's scalar
// Eval entry, so a call allocates only the kernel (and, on the coarse
// lattice, the three tile grids).

// Analytic is the canonical walk compiled for one operator and lattice:
// the cost kernel, the lattice's tile grids, and the running optimum. One
// Analytic serves any number of sequential OptimizeCtx calls (buffer
// sweeps) without allocating per call; it is not safe for concurrent use.
type Analytic struct {
	mm     op.MatMul
	ext    [3]int64
	grids  [3][]int // allowed tiles per dim (TileGrid); nil on the full lattice
	orders []dataflow.Order
	kern   *cost.BatchEval
	method string
	buffer int64
	acc    enumBest
	stop   cancelCheck
}

// NewAnalytic validates mm and compiles the full-lattice walk for it, the
// engine behind /v1/search auto (reported as "analytic").
func NewAnalytic(mm op.MatMul) (*Analytic, error) {
	return newWalk(mm, GridFull, "analytic")
}

func newWalk(mm op.MatMul, g Grid, method string) (*Analytic, error) {
	orders := dataflow.AllOrders()
	kern, err := cost.NewBatchEval(mm, orders)
	if err != nil {
		return nil, err
	}
	a := &Analytic{
		mm:     mm,
		ext:    [3]int64{int64(mm.M), int64(mm.K), int64(mm.L)},
		orders: orders,
		kern:   kern,
		method: method,
	}
	if g == GridCoarse {
		a.grids = [3][]int{TileGrid(mm.M), TileGrid(mm.K), TileGrid(mm.L)}
	}
	return a, nil
}

// OptimizeAnalytic is OptimizeAnalyticCtx without cancellation.
func OptimizeAnalytic(mm op.MatMul, bufferSize int64) (Result, error) {
	return OptimizeAnalyticCtx(context.Background(), mm, bufferSize)
}

// OptimizeAnalyticCtx runs the canonical walk over the full integer lattice
// — no population, no generations, no randomness — and returns the
// canonical optimum, the answer ReferenceExhaustive returns.
// Result.Evaluations counts the exact pricings, CacheHits is always zero,
// and Method is "analytic". A canceled ctx is reported rather than a
// partial optimum.
// Like every engine it is a panic-containment boundary: injected faults
// (SiteAnalytic, SiteEval) and organic cost-model panics return as
// ErrInternal.
func OptimizeAnalyticCtx(ctx context.Context, mm op.MatMul, bufferSize int64) (Result, error) {
	a, err := NewAnalytic(mm)
	if err != nil {
		return Result{}, err
	}
	return a.OptimizeCtx(ctx, bufferSize)
}

// WalkCtx runs the canonical walk over lattice g: the exact answer of
// ReferenceExhaustive (GridFull) or ReferenceCoarse (GridCoarse) —
// Dataflow, Access and tie-winner — at a few hundred pricings instead of a
// lattice scan, under the same method label ("exhaustive" or
// "exhaustive-coarse"). Evaluations counts the walk's pricings and
// CacheHits is zero. Extents above MaxInt32 are ErrInvalidOperator (see
// cost.NewBatchEval).
func WalkCtx(ctx context.Context, mm op.MatMul, bufferSize int64, g Grid) (Result, error) {
	method := "exhaustive"
	if g == GridCoarse {
		method = "exhaustive-coarse"
	}
	a, err := newWalk(mm, g, method)
	if err != nil {
		return Result{}, err
	}
	return a.OptimizeCtx(ctx, bufferSize)
}

// OptimizeCtx runs the walk for one buffer size, reusing the compiled
// kernel and grids (the steady state allocates nothing — pinned by
// TestAnalyticSteadyStateZeroAlloc).
func (a *Analytic) OptimizeCtx(ctx context.Context, bufferSize int64) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, panicError(r)
		}
	}()
	if bufferSize < 3 {
		return Result{}, fmt.Errorf("search: buffer %d cannot hold 1×1 tiles: %w", bufferSize, errs.ErrBufferTooSmall)
	}
	a.acc = enumBest{}
	a.stop = cancelCheck{ctx: ctx, mask: walkPollStride - 1}
	a.buffer = bufferSize
	a.emitAll()
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("search: %s walk canceled: %w", a.method, err)
	}
	if !a.acc.found {
		return Result{}, fmt.Errorf("search: no feasible dataflow for %v in buffer %d: %w", a.mm, bufferSize, errs.ErrInfeasible)
	}
	r := a.acc.best
	r.Method = a.method
	return r, nil
}

// walkPollStride is how many cells and candidates the walk visits between
// polls of its context (a power of two): a few polls per request on the
// paper's shapes, and prompt enough that a deadline stops a walk slowed by
// injected latency.
const walkPollStride = 64

// price evaluates one candidate through the kernel's scalar entry and
// folds it into the running optimum under the canonical tie-break, firing
// the analytic engine's own fault-injection site before the shared
// per-evaluation one. The caller guarantees the tiles fit the buffer and
// lie on the walk's lattice.
func (a *Analytic) price(oi int, tm, tk, tl int64) {
	if err := faultinject.Active().Fire(SiteAnalytic); err != nil {
		panic(err)
	}
	if err := faultinject.Active().Fire(SiteEval); err != nil {
		panic(err)
	}
	acc := a.kern.Eval(uint8(oi), tm, tk, tl)
	a.acc.best.Evaluations++
	key := candKey{oi, int(tm), int(tk), int(tl)}
	if a.acc.improves(acc.Total, key) {
		df := dataflow.Must(a.mm, a.orders[oi], dataflow.MustTiling(a.mm, key.tm, key.tk, key.tl))
		a.acc.take(df, acc, key)
	}
}

// emitCell prices the candidate with the given per-slot tiles if it fits.
func (a *Analytic) emitCell(oi int, tiles [3]int64) {
	foot := invariant.CheckedMul(tiles[0], tiles[1]) +
		invariant.CheckedMul(tiles[1], tiles[2]) +
		invariant.CheckedMul(tiles[0], tiles[2])
	if foot <= a.buffer {
		a.price(oi, tiles[0], tiles[1], tiles[2])
	}
}

// emitAll generates every order's per-cell boundary candidates. The (1,1,1)
// seed keeps the feasibility contract identical to the reference scans':
// any buffer ≥ 3 admits it, so the engine returns ErrInfeasible exactly
// when they would.
func (a *Analytic) emitAll() {
	a.price(0, 1, 1, 1)
	for oi := range a.orders {
		a.emitOrder(oi)
	}
}

// emitOrder walks order oi's eight activity cells. For each cell the
// non-multi dims and zero-coefficient multi dims are pinned (extent and 1
// respectively) and the remaining one or two positive-coefficient tiles are
// optimized in closed form.
func (a *Analytic) emitOrder(oi int) {
	for mask := 0; mask < 8; mask++ {
		if a.stop.stopped() {
			return
		}
		multi := [3]bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		empty := false
		for d := 0; d < 3; d++ {
			if multi[d] && a.ext[d] < 2 {
				empty = true // a unit extent cannot trip more than once
				break
			}
		}
		if empty {
			continue
		}
		base, coef := a.kern.Regime(uint8(oi), multi)
		var tiles [3]int64
		var free [2]int
		nFree := 0
		for d := 0; d < 3; d++ {
			switch {
			case !multi[d]:
				tiles[d] = a.ext[d]
			case coef[d] == 0:
				tiles[d] = 1
			default:
				invariant.Assert(nFree < 2,
					"search: analytic cell %03b of order %d has >2 free tiles", mask, oi)
				free[nFree] = d
				nFree++
			}
		}
		switch nFree {
		case 0:
			a.emitCell(oi, tiles)
		case 1:
			a.emitOne(oi, tiles, free[0])
		case 2:
			// Stationary-swap pairs share the innermost dim, so their
			// two-variable cells describe the same affine problem; emit it
			// once under the pair's lower order index (the canonical
			// tie-break winner).
			if oi%2 == 1 {
				pb, pc := a.kern.Regime(uint8(oi-1), multi)
				if pb == base && pc == coef {
					continue
				}
			}
			a.emitTwo(oi, tiles, free[0], free[1])
		}
	}
}

// emitOne handles a cell with a single free positive-coefficient tile x:
// cost base + coef·ceil(ext/x) falls as x grows while the footprint rises,
// so the one candidate is the largest feasible x, clamped to extent−1 to
// keep the trip count above one (the cell's defining condition) and
// snapped to its plateau's smallest allowed tile.
func (a *Analytic) emitOne(oi int, tiles [3]int64, d int) {
	o1, o2 := tiles[(d+1)%3], tiles[(d+2)%3]
	rest := invariant.CheckedMul(o1, o2)
	if rest >= a.buffer {
		return // no room for even x = 1
	}
	x := (a.buffer - rest) / (o1 + o2)
	if x > a.ext[d]-1 {
		x = a.ext[d] - 1
	}
	if x < 1 {
		return
	}
	tiles[d] = a.snap(d, x)
	a.emitCell(oi, tiles)
}

// emitTwo handles a cell with two free positive-coefficient tiles. It
// walks the Pareto frontier over the smaller-extent dim e: every allowed
// tile that is the smallest on its trip-count plateau, paired with the
// largest partner tile the footprint admits. On the full lattice those are
// the left endpoints x = ceil(ext_e/n); from x, the next smaller endpoint
// is ceil(ext_e/n) at the first n whose ceil drops below x, i.e.
// n = ceil(ext_e/(x−1)), so unachievable trip counts are skipped.
func (a *Analytic) emitTwo(oi int, tiles [3]int64, d1, d2 int) {
	e, p := d1, d2
	if a.ext[d2] < a.ext[d1] {
		e, p = d2, d1
	}
	exE := a.ext[e]
	if grid := a.grids[e]; grid != nil {
		prev := int64(0) // trip count of the previous grid value
		for _, v := range grid {
			x := int64(v)
			if x == exE {
				return // the extent itself trips once: outside the cell
			}
			if a.stop.stopped() {
				return
			}
			if n := ceilDiv(exE, x); n != prev {
				prev = n
				a.emitPair(oi, tiles, e, x, p)
			}
		}
		return
	}
	for n := int64(2); ; {
		if a.stop.stopped() {
			return
		}
		x := ceilDiv(exE, n)
		a.emitPair(oi, tiles, e, x, p)
		if x == 1 {
			return
		}
		n = ceilDiv(exE, x-1)
	}
}

// emitPair fixes the walked tile x on dim e and pairs it with the largest
// partner tile on dim p the footprint admits, clamped into the cell's range
// [1, extent−1] and snapped to its plateau's smallest allowed tile.
func (a *Analytic) emitPair(oi int, tiles [3]int64, e int, x int64, p int) {
	t3 := tiles[3-e-p]
	num := a.buffer - invariant.CheckedMul(t3, x)
	den := x + t3
	if num < den {
		return // even y = 1 overflows
	}
	y := num / den
	if y > a.ext[p]-1 {
		y = a.ext[p] - 1
	}
	tiles[e], tiles[p] = x, a.snap(p, y)
	a.emitCell(oi, tiles)
}

// snap returns the smallest allowed tile of dim d with the trip count of
// t, for 1 ≤ t ≤ extent. On the full lattice that is the plateau's left
// endpoint ceil(ext/ceil(ext/t)). On the coarse lattice t is first floored
// to the largest grid value ≤ t (the grid holds 1, so one exists); the
// answer is then the smallest grid value whose trip count is no larger,
// which has exactly the floored value's trip count.
func (a *Analytic) snap(d int, t int64) int64 {
	ext := a.ext[d]
	grid := a.grids[d]
	if grid == nil {
		return ceilDiv(ext, ceilDiv(ext, t))
	}
	i, found := slices.BinarySearch(grid, int(t))
	if !found {
		i-- // grid[i-1] < t < grid[i]
	}
	lo := ceilDiv(ext, ceilDiv(ext, int64(grid[i])))
	j, _ := slices.BinarySearch(grid[:i+1], int(lo))
	return int64(grid[j])
}

// ceilDiv is ceil(a/b) for positive operands.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
