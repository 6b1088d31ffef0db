// Package search implements the search-based dataflow optimizer the
// principles are validated against, playing the role DAT plays in the paper
// (Fig. 9). Several engines are provided over the identical tiling/scheduling
// space used by internal/core:
//
//   - Exhaustive enumerates every loop order and every integer tiling —
//     the ground-truth optimum, tractable for small operators and used by the
//     test suite to prove the principle optimizer's optimality. It prunes by
//     footprint monotonicity; ReferenceExhaustive is the frozen unpruned
//     original it is proven equivalent to.
//   - ExhaustiveCoarse restricts the tilings to the TileGrid lattice — the
//     tractable projection search-based mappers explore for large operators.
//   - ParallelExhaustive / ParallelCoarse shard the same scans across a
//     worker pool and return bit-identical results.
//   - Genetic is a DAT-style genetic algorithm for spaces where exhaustive
//     enumeration is intractable. Like DAT's GA it does not guarantee the
//     global optimum, which is exactly the behaviour Fig. 9 exercises.
//   - Optimize, OptimizeParallel and OptimizeTable are DAT itself: exact
//     enumeration over the coarse lattice polished by the GA, keeping the
//     better of the two (MIP+GA), or the GA alone above CoarseLatticeLimit.
//   - OptimizeAnalytic derives per-regime closed-form optima of the
//     piecewise-affine cost model and prices only the integer boundary
//     candidates around them — tens-to-hundreds of exact evaluations where
//     the GA pays thousands. It is exact over the full integer space and
//     is the engine behind /v1/search auto.
//
// Every engine prices its candidates directly: the enumeration engines and
// the analytic engine through the cost.BatchEval kernel, the GA through
// cost.Evaluate. Only candidate tables (CandTable) amortize pricing across
// calls, by folding a whole lattice into footprint-indexed step functions.
package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// Result is the outcome of a search.
type Result struct {
	Dataflow dataflow.Dataflow
	Access   cost.Access
	// Evaluations counts cost-model invocations, the search-cost metric the
	// paper contrasts with one-shot principle optimization.
	Evaluations int64
	// CacheHits counts candidate visits a CandTable served from its
	// prebuilt step functions without invoking the cost model; every other
	// engine reports 0. Evaluations + CacheHits is the engine's total
	// candidate-visit count, equal on the table and scan paths over the
	// same lattice.
	CacheHits int64
	Method    string
}

// Exhaustive enumerates all 6 loop orders × all integer tilings and returns
// the global optimum. Cost grows with M·K·L; use only for operators whose
// dimension product is modest (tests, calibration). The scan prunes by
// footprint monotonicity and is proven bit-identical to
// ReferenceExhaustive.
func Exhaustive(mm op.MatMul, bufferSize int64) (Result, error) {
	return ExhaustiveCtx(context.Background(), mm, bufferSize)
}

// ExhaustiveCtx is Exhaustive with cooperative cancellation: when ctx is
// canceled the scan abandons its sweep at the next poll and returns
// ctx.Err() instead of a partial optimum.
func ExhaustiveCtx(ctx context.Context, mm op.MatMul, bufferSize int64) (Result, error) {
	return enumerate(ctx, mm, bufferSize, GridFull, 1, "exhaustive")
}

// TileGrid returns the candidate tile values for one dimension extent used
// by the coarse engines: 1, the extent itself, all powers of two below it,
// and all divisors up to a density cap. This matches the pragmatic grids
// search-based mappers explore.
func TileGrid(extent int) []int {
	set := map[int]bool{1: true, extent: true}
	for p := 2; p < extent; p *= 2 {
		set[p] = true
	}
	for d := 2; d*d <= extent; d++ {
		if extent%d == 0 {
			set[d] = true
			set[extent/d] = true
		}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// ExhaustiveCoarse enumerates all loop orders over the TileGrid lattice —
// the tractable projection of the full space that DSE frameworks typically
// explore for large operators. Pruned like Exhaustive; proven bit-identical
// to ReferenceCoarse.
func ExhaustiveCoarse(mm op.MatMul, bufferSize int64) (Result, error) {
	return ExhaustiveCoarseCtx(context.Background(), mm, bufferSize)
}

// ExhaustiveCoarseCtx is ExhaustiveCoarse with cooperative cancellation,
// under the same promptness contract as ExhaustiveCtx.
func ExhaustiveCoarseCtx(ctx context.Context, mm op.MatMul, bufferSize int64) (Result, error) {
	return enumerate(ctx, mm, bufferSize, GridCoarse, 1, "exhaustive-coarse")
}

// ParallelExhaustive is Exhaustive sharded across a worker pool (workers ≤ 0
// selects GOMAXPROCS, and larger counts are clamped to it). The result —
// dataflow, access, tie-break and evaluation count — is bit-identical to
// the sequential engine's for any worker count.
func ParallelExhaustive(mm op.MatMul, bufferSize int64, workers int) (Result, error) {
	return ParallelExhaustiveCtx(context.Background(), mm, bufferSize, workers)
}

// ParallelExhaustiveCtx is ParallelExhaustive with cooperative cancellation:
// when ctx is canceled the dispatcher stops sharding, every worker abandons
// its chunk at the next poll (at most ~1024 candidate visits away), and the
// call returns ctx.Err() instead of a partial optimum.
func ParallelExhaustiveCtx(ctx context.Context, mm op.MatMul, bufferSize int64, workers int) (Result, error) {
	return enumerate(ctx, mm, bufferSize, GridFull, nonUnitWorkers(workers), "exhaustive-parallel")
}

// ParallelCoarse is ExhaustiveCoarse sharded across a worker pool, with the
// same bit-identical-result guarantee as ParallelExhaustive.
func ParallelCoarse(mm op.MatMul, bufferSize int64, workers int) (Result, error) {
	return ParallelCoarseCtx(context.Background(), mm, bufferSize, workers)
}

// ParallelCoarseCtx is ParallelCoarse with cooperative cancellation, under
// the same promptness contract as ParallelExhaustiveCtx.
func ParallelCoarseCtx(ctx context.Context, mm op.MatMul, bufferSize int64, workers int) (Result, error) {
	return enumerate(ctx, mm, bufferSize, GridCoarse, nonUnitWorkers(workers), "exhaustive-coarse-parallel")
}

// nonUnitWorkers keeps an explicit workers=1 request on the sequential
// in-line path while mapping auto-selection (≤ 0) through to the pool.
func nonUnitWorkers(workers int) int {
	if workers < 1 {
		return 0
	}
	return workers
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
	// Elitism keeps the best individuals unchanged each generation.
	// 0 selects the default of 4; a negative value requests no elitism
	// (the zero value cannot, since it must keep the default behaviour).
	Elitism int
}

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
	switch {
	case o.Elitism == 0:
		o.Elitism = 4
	case o.Elitism < 0:
		o.Elitism = 0
	}
	if o.Elitism > o.Population/2 {
		o.Elitism = o.Population / 2
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
// milliseconds) and returns ctx's error once it is done. Like the
// enumeration engines it is a panic-containment boundary: a panic escaping
// a fitness evaluation (injected or organic) is returned as an ErrInternal
// error instead of unwinding into the caller.
func GeneticCtx(ctx context.Context, mm op.MatMul, bufferSize int64, opts GeneticOptions) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, panicError(r)
		}
	}()
	if err := mm.Validate(); err != nil {
		return Result{}, err
	}
	if bufferSize < 3 {
		return Result{}, fmt.Errorf("search: buffer %d cannot hold 1×1 tiles: %w", bufferSize, errs.ErrBufferTooSmall)
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	orders := dataflow.AllOrders()

	var evals int64
	fitness := func(g genome) int64 {
		df := dataflow.Must(mm, orders[g.order], dataflow.ClampedTiling(mm, g.tm, g.tk, g.tl))
		a := evalDataflow(mm, df)
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
	for gen := 0; gen < opts.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("search: genetic search canceled at generation %d: %w", gen, err)
		}
		s := score()
		if bestF < 0 || s[0].f < bestF {
			bestF, bestG = s[0].f, s[0].g
		}
		next := make([]genome, 0, opts.Population)
		for i := 0; i < opts.Elitism && i < len(s); i++ {
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

	df := dataflow.Must(mm, orders[bestG.order], dataflow.ClampedTiling(mm, bestG.tm, bestG.tk, bestG.tl))
	// Uncounted re-evaluation of the winner, preserving the historical
	// Evaluations semantics (fitness invocations only).
	a := cost.MustEvaluate(mm, df)
	if a.Footprint > bufferSize {
		return Result{}, fmt.Errorf("search: genetic search found no feasible dataflow for %v in buffer %d: %w", mm, bufferSize, errs.ErrInfeasible)
	}
	return Result{Dataflow: df, Access: a, Evaluations: evals, Method: "genetic"}, nil
}

// Optimize is the DAT baseline. It picks the engine by space size: exact
// enumeration over the coarse lattice when it is small enough, polished by
// the GA, otherwise the GA alone. This is the entry point the Fig. 9
// harness uses as "DAT".
func Optimize(mm op.MatMul, bufferSize int64, opts GeneticOptions) (Result, error) {
	return optimize(context.Background(), mm, bufferSize, opts, 1)
}

// OptimizeParallel is Optimize with the lattice stage sharded across
// workers (workers ≤ 0 selects GOMAXPROCS); the GA stays sequential — its
// generations are a dependent chain by construction.
func OptimizeParallel(mm op.MatMul, bufferSize int64, opts GeneticOptions, workers int) (Result, error) {
	return OptimizeParallelCtx(context.Background(), mm, bufferSize, opts, workers)
}

// OptimizeParallelCtx is OptimizeParallel with cooperative cancellation
// threaded through both stages: the sharded lattice scan stops its worker
// pool promptly (see ParallelExhaustiveCtx) and the GA checks ctx between
// generations. When ctx is canceled the call returns an error
// wrapping ctx.Err(); an uncancelled ctx changes nothing — results stay
// bit-identical to OptimizeParallel.
func OptimizeParallelCtx(ctx context.Context, mm op.MatMul, bufferSize int64, opts GeneticOptions, workers int) (Result, error) {
	return optimize(ctx, mm, bufferSize, opts, workers)
}

// CoarseLatticeLimit is the coarse-lattice size up to which Optimize runs
// the exact enumeration stage (plus the GA); above it only the GA runs.
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
// prebuilt candidate table instead of a per-call scan: an O(log n) step
// lookup replaces the O(lattice) enumeration, and the GA runs
// unchanged. Results are bit-identical to OptimizeParallelCtx for the same
// inputs (property-tested), including the Evaluations+CacheHits accounting.
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
	// including the conservation sum — matches the scan path bit for bit.
	return keepBetterGA(ctx, mm, bufferSize, opts, r, "table")
}

func optimize(ctx context.Context, mm op.MatMul, bufferSize int64, opts GeneticOptions, workers int) (Result, error) {
	lattice := CoarseLattice(mm)
	if lattice <= CoarseLatticeLimit {
		var (
			r   Result
			err error
		)
		if workers == 1 {
			r, err = ExhaustiveCoarseCtx(ctx, mm, bufferSize)
		} else {
			r, err = ParallelCoarseCtx(ctx, mm, bufferSize, workers)
		}
		if err != nil {
			return Result{}, err
		}
		return keepBetterGA(ctx, mm, bufferSize, opts, r, "coarse")
	}
	return GeneticCtx(ctx, mm, bufferSize, opts)
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
