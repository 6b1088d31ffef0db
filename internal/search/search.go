// Package search implements the search-based dataflow optimizer the
// principles are validated against, playing the role DAT plays in the paper
// (Fig. 9). Its engines cover the identical tiling/scheduling space used by
// internal/core:
//
//   - WalkCtx and OptimizeAnalytic are the canonical walk: per-regime
//     closed-form optima of the piecewise-affine cost model, pricing only
//     the trip-count plateaus' smallest allowed tiles — tens to hundreds of
//     exact evaluations where the GA pays thousands. On the full integer
//     lattice (GridFull) or the TileGrid lattice (GridCoarse) it returns
//     the frozen reference scans' exact Dataflow and Access, tie-winner
//     included, and it is the engine behind /v1/search auto, exhaustive
//     and coarse.
//   - Genetic is a DAT-style genetic algorithm for spaces where exhaustive
//     enumeration is intractable. Like DAT's GA it does not guarantee the
//     global optimum, which is exactly the behaviour Fig. 9 exercises.
//   - Optimize and OptimizeTable are DAT itself: the exact optimum of the
//     coarse lattice polished by the GA, keeping the better of the two
//     (MIP+GA), or the GA alone above CoarseLatticeLimit. Optimize runs its
//     lattice stage on the coarse walk and counts, rather than prices, the
//     lattice candidates DAT visits.
//   - ReferenceExhaustive and ReferenceCoarse are the frozen unpruned
//     scans every other engine is tested against.
//
// The walk and the GA price one candidate at a time through the compiled
// cost.BatchEval kernel's scalar entry. Only candidate tables (CandTable)
// price whole lattices, in struct-of-arrays blocks, folding them into
// footprint-indexed step functions. No request and no command uses them;
// they stay only while the repository benchmark's traced replay
// (fleetbench/) still builds them.
package search

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/faultinject"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// Result is the outcome of a search.
type Result struct {
	Dataflow dataflow.Dataflow
	Access   cost.Access
	// Evaluations counts cost-model invocations, the search-cost metric the
	// paper contrasts with one-shot principle optimization. DAT's lattice
	// stage (Optimize) reports the lattice candidates it visits — counted,
	// not priced, and equal to ReferenceCoarse's Evaluations.
	Evaluations int64
	// CacheHits counts candidate visits a CandTable served from its
	// prebuilt step functions without invoking the cost model; every other
	// engine reports 0. OptimizeTable's Evaluations + CacheHits equals
	// Optimize's Evaluations for the same inputs.
	CacheHits int64
	Method    string
}

// TileGrid returns the candidate tile values for one dimension extent used
// by the coarse engines, ascending: 1, the extent itself, all powers of two
// below it, and every divisor. This matches the pragmatic grids
// search-based mappers explore. The values are collected into one slice
// and deduplicated after sorting, so a call makes one allocation.
func TileGrid(extent int) []int {
	// The powers of two number bits.Len(extent); the capacity also covers
	// the divisors of most extents, which otherwise cost one regrow.
	out := make([]int, 0, 4*bits.Len(uint(extent)))
	out = append(out, 1, extent)
	for p := 2; p < extent; p *= 2 {
		out = append(out, p)
	}
	for d := 2; d*d <= extent; d++ {
		if extent%d == 0 {
			out = append(out, d, extent/d)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// GeneticOptions tunes the genetic engine. The zero value selects the
// defaults used throughout the benchmarks.
type GeneticOptions struct {
	Population  int // default 64
	Generations int // default 60
	// Seed seeds the deterministic RNG. The zero value selects the default
	// seed 1 (so zero-valued options keep the benchmarks' historical
	// behaviour); every other value, including negatives, is used verbatim.
	// A literal seed of 0 is therefore not expressible — pass any other
	// value for an independent stream.
	Seed int64
}

// geneticElites is how many of the best individuals each generation
// carries over unchanged.
const geneticElites = 4

// elites is the number of individuals carried over unchanged each
// generation: geneticElites, at most half the population.
func (o GeneticOptions) elites() int { return min(geneticElites, o.Population/2) }

func (o GeneticOptions) withDefaults() GeneticOptions {
	if o.Population <= 0 {
		o.Population = 64
	}
	if o.Generations <= 0 {
		o.Generations = 60
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

type genome struct {
	order      int // index into dataflow.AllOrders()
	tm, tk, tl int
}

// infeasibleFitness penalizes an infeasible genome proportionally to its
// buffer overflow, saturating at MaxInt64 instead of wrapping: on huge
// operators total + overflow·1024 exceeds int64, and the wrapped-negative
// penalty would make an infeasible genome beat every feasible one.
func infeasibleFitness(total, overflow int64) int64 {
	const weight = 1024
	if invariant.MulOverflows(overflow, weight) {
		return math.MaxInt64
	}
	p := overflow * weight
	if total > math.MaxInt64-p {
		return math.MaxInt64
	}
	return total + p
}

// Genetic runs a DAT-style genetic algorithm over loop orders and integer
// tilings. It is deterministic for a fixed seed. Like DAT it may return a
// locally rather than globally optimal dataflow.
func Genetic(mm op.MatMul, bufferSize int64, opts GeneticOptions) (Result, error) {
	return GeneticCtx(context.Background(), mm, bufferSize, opts)
}

// GeneticCtx is Genetic under a cancelable context: the generation loop
// checks ctx between generations (one generation is a bounded
// Population-sized batch of closed-form evaluations, so the check cadence is
// milliseconds) and returns ctx's error once it is done. Like the walk it
// is a panic-containment boundary: a panic escaping a fitness evaluation
// (injected or organic) is returned as an ErrInternal error instead of
// unwinding into the caller.
func GeneticCtx(ctx context.Context, mm op.MatMul, bufferSize int64, opts GeneticOptions) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, panicError("genetic search", r)
		}
	}()
	orders := dataflow.AllOrders()
	// One kernel per call prices every genome. Its scalar entry takes int64
	// tiles, so the GA serves extents above MaxInt32 as well.
	kern, err := cost.Compile(mm, orders)
	if err != nil {
		return Result{}, err
	}
	if bufferSize < 3 {
		return Result{}, fmt.Errorf("search: buffer %d cannot hold 1×1 tiles: %w", bufferSize, errs.ErrBufferTooSmall)
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	price := func(g genome) cost.Access {
		ti := dataflow.ClampedTiling(mm, g.tm, g.tk, g.tl)
		return kern.Eval(uint8(g.order), int64(ti.TM), int64(ti.TK), int64(ti.TL))
	}

	var evals int64
	fitness := func(g genome) int64 {
		if err := faultinject.Active().Fire(SiteEval); err != nil {
			// Fitness has no error return; the recover above converts this
			// into ErrInternal.
			panic(err)
		}
		a := price(g)
		evals++
		if a.Footprint > bufferSize {
			// Penalize infeasible individuals proportionally to overflow so
			// repair pressure points back into the feasible region.
			return infeasibleFitness(a.Total, a.Footprint-bufferSize)
		}
		return a.Total
	}

	randTile := func(ext int) int { return rng.Intn(ext) + 1 }
	repair := func(g genome) genome {
		g.tm, g.tk, g.tl = clampT(g.tm, mm.M), clampT(g.tk, mm.K), clampT(g.tl, mm.L)
		for i := 0; i < 64; i++ {
			ti := dataflow.ClampedTiling(mm, g.tm, g.tk, g.tl)
			if ti.Footprint() <= bufferSize {
				break
			}
			// Shrink the largest tile.
			switch {
			case g.tm >= g.tk && g.tm >= g.tl && g.tm > 1:
				g.tm = g.tm/2 + g.tm%2
			case g.tk >= g.tl && g.tk > 1:
				g.tk = g.tk/2 + g.tk%2
			case g.tl > 1:
				g.tl = g.tl/2 + g.tl%2
			default:
				return g
			}
		}
		return g
	}

	pop := make([]genome, opts.Population)
	for i := range pop {
		pop[i] = repair(genome{
			order: rng.Intn(len(orders)),
			tm:    randTile(mm.M),
			tk:    randTile(mm.K),
			tl:    randTile(mm.L),
		})
	}

	type scored struct {
		g genome
		f int64
	}
	score := func() []scored {
		s := make([]scored, len(pop))
		for i, g := range pop {
			s[i] = scored{g, fitness(g)}
		}
		sort.Slice(s, func(i, j int) bool { return s[i].f < s[j].f })
		return s
	}

	mutate := func(g genome) genome {
		switch rng.Intn(5) {
		case 0:
			g.order = rng.Intn(len(orders))
		case 1:
			g.tm = mutateTile(rng, g.tm, mm.M)
		case 2:
			g.tk = mutateTile(rng, g.tk, mm.K)
		case 3:
			g.tl = mutateTile(rng, g.tl, mm.L)
		case 4:
			// Jump to an untiled extreme, the move that discovers the
			// Two-/Three-NRA basins.
			switch rng.Intn(3) {
			case 0:
				g.tm = mm.M
			case 1:
				g.tk = mm.K
			case 2:
				g.tl = mm.L
			}
		}
		return repair(g)
	}
	crossover := func(a, b genome) genome {
		c := a
		if rng.Intn(2) == 0 {
			c.order = b.order
		}
		if rng.Intn(2) == 0 {
			c.tm = b.tm
		}
		if rng.Intn(2) == 0 {
			c.tk = b.tk
		}
		if rng.Intn(2) == 0 {
			c.tl = b.tl
		}
		return repair(c)
	}
	tournament := func(s []scored) genome {
		best := s[rng.Intn(len(s))]
		for i := 0; i < 2; i++ {
			if c := s[rng.Intn(len(s))]; c.f < best.f {
				best = c
			}
		}
		return best.g
	}

	var bestG genome
	var bestF int64 = -1
	elites := opts.elites()
	for gen := 0; gen < opts.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("search: genetic search canceled at generation %d: %w", gen, err)
		}
		s := score()
		if bestF < 0 || s[0].f < bestF {
			bestF, bestG = s[0].f, s[0].g
		}
		next := make([]genome, 0, opts.Population)
		for i := 0; i < elites && i < len(s); i++ {
			next = append(next, s[i].g)
		}
		for len(next) < opts.Population {
			child := crossover(tournament(s), tournament(s))
			if rng.Intn(100) < 40 {
				child = mutate(child)
			}
			next = append(next, child)
		}
		pop = next
	}
	s := score()
	if s[0].f < bestF {
		bestF, bestG = s[0].f, s[0].g
	}

	// Uncounted re-evaluation of the winner, preserving the historical
	// Evaluations semantics (fitness invocations only).
	a := price(bestG)
	if a.Footprint > bufferSize {
		return Result{}, fmt.Errorf("search: genetic search found no feasible dataflow for %v in buffer %d: %w", mm, bufferSize, errs.ErrInfeasible)
	}
	df := dataflow.Must(mm, orders[bestG.order], dataflow.ClampedTiling(mm, bestG.tm, bestG.tk, bestG.tl))
	return Result{Dataflow: df, Access: a, Evaluations: evals, Method: "genetic"}, nil
}

// Optimize is OptimizeCtx without cancellation.
func Optimize(mm op.MatMul, bufferSize int64, opts GeneticOptions) (Result, error) {
	return OptimizeCtx(context.Background(), mm, bufferSize, opts)
}

// OptimizeCtx is the DAT baseline, the entry point the Fig. 9 harness uses
// as "DAT". Up to CoarseLatticeLimit it finds the exact optimum of the
// coarse lattice (coarseStage), polishes it with the GA and keeps the
// better answer; above the limit it runs the GA alone. Both stages honour
// ctx: a canceled call returns an error wrapping ctx.Err().
func OptimizeCtx(ctx context.Context, mm op.MatMul, bufferSize int64, opts GeneticOptions) (Result, error) {
	if CoarseLattice(mm) > CoarseLatticeLimit {
		return GeneticCtx(ctx, mm, bufferSize, opts)
	}
	r, err := coarseStage(ctx, mm, bufferSize)
	if err != nil {
		return Result{}, err
	}
	return keepBetterGA(ctx, mm, bufferSize, opts, r, "coarse")
}

// coarseStage is DAT's lattice stage: the canonical walk over GridCoarse,
// which returns ReferenceCoarse's Dataflow and Access, with Evaluations set
// to the lattice candidates DAT visits (coarseVisits), so Fig. 9's
// search-cost metric counts what an enumerating DAT would price.
func coarseStage(ctx context.Context, mm op.MatMul, bufferSize int64) (Result, error) {
	r, err := WalkCtx(ctx, mm, bufferSize, GridCoarse)
	if err != nil {
		return Result{}, err
	}
	r.Evaluations = coarseVisits(mm, bufferSize)
	return r, nil
}

// coarseVisits counts the candidates DAT's lattice stage visits: the
// (order, tiling) points of mm's TileGrid lattice whose footprint fits
// bufferSize, which is ReferenceCoarse's Evaluations. The footprint
// T_M·T_K + (T_M + T_K)·T_L grows with every tile, so per (T_M, T_K) one
// binary search counts the grid values T_L ≤ (BS − T_M·T_K)/(T_M + T_K),
// the scan over T_K stops at the first T_K where none fit, and the count
// is the same for every loop order. mm must be a valid operator with
// extents the walk accepts.
func coarseVisits(mm op.MatMul, bufferSize int64) int64 {
	gm, gk, gl := TileGrid(mm.M), TileGrid(mm.K), TileGrid(mm.L)
	var n int64
	for _, tm := range gm {
		for _, tk := range gk {
			maxL := (bufferSize - invariant.CheckedMul(int64(tm), int64(tk))) / int64(tm+tk)
			if maxL < 1 {
				break
			}
			i, found := slices.BinarySearch(gl, int(min(maxL, int64(mm.L))))
			if found {
				i++
			}
			n += int64(i)
		}
	}
	return n * int64(len(dataflow.AllOrders()))
}

// CoarseLatticeLimit is the coarse-lattice size up to which Optimize runs
// the exact lattice stage (plus the GA); above it only the GA runs. It is
// part of the DAT model: the walk would answer larger lattices too.
// Exported so table-backed callers can reproduce the engine selection
// exactly.
const CoarseLatticeLimit = 200_000

// CoarseLattice returns the size of mm's coarse candidate lattice — the
// quantity Optimize compares against CoarseLatticeLimit.
func CoarseLattice(mm op.MatMul) int64 {
	return int64(len(TileGrid(mm.M))) * int64(len(TileGrid(mm.K))) * int64(len(TileGrid(mm.L))) * 6
}

// OptimizeTable is OptimizeTableCtx without cancellation.
func OptimizeTable(mm op.MatMul, bufferSize int64, opts GeneticOptions, table *CandTable) (Result, error) {
	return OptimizeTableCtx(context.Background(), mm, bufferSize, opts, table, nil)
}

// OptimizeTableCtx is Optimize with the coarse lattice stage served by a
// prebuilt candidate table: an O(log n) step lookup answers it, and the GA
// runs unchanged. Results are bit-identical to OptimizeCtx for the same inputs
// (property-tested), including the Evaluations+CacheHits accounting.
//
// table must cover mm's shape over GridCoarse when mm's coarse lattice is
// within CoarseLatticeLimit; above the limit the lattice stage is skipped —
// exactly as in Optimize — and table may be nil. The EvalCache argument is
// ignored (see EvalCache).
func OptimizeTableCtx(ctx context.Context, mm op.MatMul, bufferSize int64, opts GeneticOptions, table *CandTable, _ *EvalCache) (Result, error) {
	if err := mm.Validate(); err != nil {
		return Result{}, err
	}
	if CoarseLattice(mm) > CoarseLatticeLimit {
		return GeneticCtx(ctx, mm, bufferSize, opts)
	}
	if table == nil {
		return Result{}, fmt.Errorf("search: OptimizeTable needs a coarse candidate table for %v: %w", mm, errs.ErrInternal)
	}
	if tm := table.Op(); tm.M != mm.M || tm.K != mm.K || tm.L != mm.L || table.Grid() != GridCoarse {
		return Result{}, fmt.Errorf("search: candidate table covers %v over %s grid, want %v coarse: %w", table.Op(), table.Grid(), mm, errs.ErrInternal)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("search: canceled: %w", err)
	}
	r, err := table.Best(bufferSize)
	if err != nil {
		return Result{}, err
	}
	// The GA is deterministic for a seed, so the combined result —
	// including the conservation sum — matches Optimize bit for bit.
	return keepBetterGA(ctx, mm, bufferSize, opts, r, "table")
}

// keepBetterGA is DAT's MIP+GA rule: the coarse lattice can miss boundary
// tile values such as (BS−K)/(K+1), so the GA polishes the lattice answer
// r and the better of the two wins, carrying both stages' visit counts.
// lattice names r's stage in the winning GA answer's Method.
func keepBetterGA(ctx context.Context, mm op.MatMul, bufferSize int64, opts GeneticOptions, r Result, lattice string) (Result, error) {
	g, gerr := GeneticCtx(ctx, mm, bufferSize, opts)
	if gerr == nil && g.Access.Total < r.Access.Total {
		g.Evaluations += r.Evaluations
		g.CacheHits += r.CacheHits
		g.Method = lattice + "+genetic"
		return g, nil
	}
	r.Evaluations += g.Evaluations
	return r, nil
}

func clampT(v, hi int) int {
	if v < 1 {
		return 1
	}
	if v > hi {
		return hi
	}
	return v
}

func mutateTile(rng *rand.Rand, v, ext int) int {
	switch rng.Intn(4) {
	case 0:
		v *= 2
	case 1:
		v = v/2 + v%2
	case 2:
		v += rng.Intn(5) - 2
	default:
		v = rng.Intn(ext) + 1
	}
	return clampT(v, ext)
}
