package search

import (
	"fmt"
	"math"
	"sort"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/faultinject"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// This file implements the candidate-table engine: the sweep-side dual of
// the reference scans. A scan answers "best dataflow under buffer BS" by
// walking the candidate lattice per query; a CandTable walks the lattice
// exactly once per operator shape, evaluates every (order, tiling) candidate
// (cost is buffer-independent — only footprint feasibility depends on BS),
// and compresses the results into footprint-sorted prefix-minimum step
// functions. A buffer query then reduces to one binary search: O(log n)
// instead of O(lattice), while returning the bit-identical optimum —
// dataflow, access breakdown and canonical tie-break — the reference
// engines produce (property-tested in candtable_test.go).
//
// The compression leans on one observation: as the feasible footprint
// threshold grows, the set of admitted candidates only ever grows, so the
// optimum as a function of BS is a step function that changes at most once
// per admitted candidate and in practice a handful of times. Each step
// stores the footprint at which it becomes active plus the full evaluated
// optimum; the raw per-candidate entries are discarded after the fold, so a
// resident table costs ~8 bytes per candidate (the footprint array that
// prices visit counts) plus a few steps.
//
// Steps are kept per tensor-rotation class — the stationary tensor the loop
// order keeps resident (OS/WS/IS), i.e. which of A, B, C rotates into the
// innermost-reuse position — alongside the global fold, so "best
// output-stationary dataflow under BS" is the same O(log n) query as the
// unconstrained optimum.

// Grid selects the candidate lattice a table is built over.
type Grid uint8

const (
	// GridFull is the complete integer tiling space — ReferenceExhaustive's
	// lattice.
	GridFull Grid = iota
	// GridCoarse is the TileGrid lattice — ReferenceCoarse's space and the
	// lattice stage of Optimize.
	GridCoarse
)

func (g Grid) String() string {
	switch g {
	case GridFull:
		return "full"
	case GridCoarse:
		return "coarse"
	}
	return fmt.Sprintf("Grid(%d)", uint8(g))
}

// gridValues returns the per-dimension tile value lists of g for mm.
func gridValues(mm op.MatMul, g Grid) (gm, gk, gl []int) {
	if g == GridCoarse {
		return TileGrid(mm.M), TileGrid(mm.K), TileGrid(mm.L)
	}
	return fullRange(mm.M), fullRange(mm.K), fullRange(mm.L)
}

// TableCandidates returns the number of (order, tiling) candidates a table
// over grid g would hold for mm — the sizing input for admission caps. The
// full lattice is counted, not materialized, and a count beyond int64
// saturates at math.MaxInt64.
func TableCandidates(mm op.MatMul, g Grid) int64 {
	if mm.Validate() != nil {
		return 0
	}
	if g == GridCoarse {
		return CoarseLattice(mm)
	}
	n := int64(len(dataflow.AllOrders()))
	for _, ext := range []int64{int64(mm.M), int64(mm.K), int64(mm.L)} {
		if invariant.MulOverflows(n, ext) {
			return math.MaxInt64
		}
		n *= ext
	}
	return n
}

// MaxTableCandidates is the hard admission cap of NewCandTable: above it the
// transient build arrays stop being "a few hundred MB" and the build stops
// being interactive, so the constructor refuses and callers fall back to
// the walk.
const MaxTableCandidates = 1 << 23

// tableStep is one plateau of the prefix-minimum step function: for every
// buffer size ≥ foot (up to the next step), df is the optimal feasible
// candidate and access its evaluated cost.
type tableStep struct {
	foot   int64
	df     dataflow.Dataflow
	access cost.Access
}

// candEntry is the transient per-candidate record of a table build.
type candEntry struct {
	foot, total    int64
	oi, tm, tk, tl int32
}

// CandTable is an immutable per-shape candidate table. Safe for concurrent
// readers; queries never allocate or lock.
type CandTable struct {
	mm   op.MatMul
	grid Grid
	// classFoot partitions every candidate's footprint by rotation class,
	// each slice ascending — the visit-count index.
	classFoot [3][]int64
	// steps is the global prefix-min step function; classSteps the
	// per-rotation-class ones. All strictly increasing in foot.
	steps      []tableStep
	classSteps [3][]tableStep
	candidates int64
}

// EvalCache is an empty placeholder kept only so that callers written
// against the removed evaluation cache still compile: NewCandTable and
// OptimizeTableCtx accept one and ignore it. It is due for removal, with
// those parameters, at the next change to the benchmark module.
type EvalCache struct{}

// NewEvalCache returns nil; see EvalCache.
func NewEvalCache() *EvalCache { return nil }

// NewCandTable enumerates and evaluates every candidate of grid g for mm
// once — Candidates() cost-model invocations through the batch kernel — and
// folds the footprint-sorted prefix minima. The EvalCache argument is
// ignored (see EvalCache). Builds above MaxTableCandidates are refused with
// an error wrapping errs.ErrInfeasible-free sizing text; a panic escaping
// the cost model (organic or fault-injected) is contained and returned as
// errs.ErrInternal, like every engine boundary.
func NewCandTable(mm op.MatMul, g Grid, _ *EvalCache) (t *CandTable, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, panicError("candidate-table build", r)
		}
	}()
	if err := mm.Validate(); err != nil {
		return nil, err
	}
	n := TableCandidates(mm, g)
	if n > MaxTableCandidates {
		return nil, fmt.Errorf("search: candidate table for %v over %s grid needs %d entries (cap %d)", mm, g, n, MaxTableCandidates)
	}
	kern, err := cost.NewBatchEval(mm, dataflow.AllOrders())
	if err != nil {
		return nil, err
	}
	t = &CandTable{mm: mm, grid: g, candidates: n}
	t.build(kern)
	return t, nil
}

// build evaluates the lattice through the shared batch kernel, sorts by
// (footprint, canonical key) and folds the prefix-minimum steps.
// NewCandTable contains its panics. Candidates stream through one reused
// struct-of-arrays block priced by the kernel's EvalBlock, so the lattice
// pass constructs and validates nothing per candidate.
func (t *CandTable) build(kern *cost.BatchEval) {
	gm, gk, gl := gridValues(t.mm, t.grid)
	orders := dataflow.AllOrders()
	entries := make([]candEntry, 0, t.candidates)
	blk := cost.NewBlock(scanBlockSize)
	flush := func() {
		kern.EvalBlock(blk)
		for i := range blk.Out {
			entries = append(entries, candEntry{
				foot: blk.Foot[i], total: blk.Out[i].Total,
				oi: int32(blk.OI[i]), tm: blk.TM[i], tk: blk.TK[i], tl: blk.TL[i],
			})
		}
		blk.Reset()
	}
	for _, tm := range gm {
		for _, tk := range gk {
			for _, tl := range gl {
				fp := tileFootprint(tm, tk, tl)
				for oi := range orders {
					if err := faultinject.Active().Fire(SiteEval); err != nil {
						// Same per-candidate site as the other engines;
						// NewCandTable converts the panic into ErrInternal.
						panic(err)
					}
					if blk.Full() {
						flush()
					}
					blk.Push(uint8(oi), int32(tm), int32(tk), int32(tl), fp)
				}
			}
		}
	}
	flush()
	// Footprint-major sort with the canonical key as tie-break makes the
	// fold deterministic; the fold itself is a min over the total order
	// (total, key), so the optimum per prefix is independent of the order
	// candidates were enumerated in. The comparator spells out candKey.less
	// over the packed fields — this sort is a third of a cold build.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.foot != b.foot {
			return a.foot < b.foot
		}
		if a.oi != b.oi {
			return a.oi < b.oi
		}
		if a.tm != b.tm {
			return a.tm < b.tm
		}
		if a.tk != b.tk {
			return a.tk < b.tk
		}
		return a.tl < b.tl
	})

	type fold struct {
		total int64
		key   candKey
		found bool
	}
	var global fold
	var class [3]fold
	takeStep := func(steps []tableStep, e candEntry) []tableStep {
		o := dataflow.AllOrders()[e.oi]
		df := dataflow.Must(t.mm, o, dataflow.MustTiling(t.mm, int(e.tm), int(e.tk), int(e.tl)))
		// Deterministic recomputation of an evaluation already counted
		// during the lattice pass; steps are few, so this is O(steps).
		st := tableStep{foot: e.foot, df: df, access: cost.MustEvaluate(t.mm, df)}
		if len(steps) > 0 && steps[len(steps)-1].foot == e.foot {
			steps[len(steps)-1] = st
			return steps
		}
		return append(steps, st)
	}
	for _, e := range entries {
		key := candKey{int(e.oi), int(e.tm), int(e.tk), int(e.tl)}
		ci := int(dataflow.AllOrders()[e.oi].Stationary().Kind())
		t.classFoot[ci] = append(t.classFoot[ci], e.foot)
		if !global.found || e.total < global.total || (e.total == global.total && key.less(global.key)) {
			global = fold{total: e.total, key: key, found: true}
			t.steps = takeStep(t.steps, e)
		}
		if c := &class[ci]; !c.found || e.total < c.total || (e.total == c.total && key.less(c.key)) {
			*c = fold{total: e.total, key: key, found: true}
			t.classSteps[ci] = takeStep(t.classSteps[ci], e)
		}
	}
}

// Op returns the operator shape the table was built for.
func (t *CandTable) Op() op.MatMul { return t.mm }

// Grid returns the lattice the table covers.
func (t *CandTable) Grid() Grid { return t.grid }

// Candidates returns the number of (order, tiling) candidates the table
// covers — the cost-model invocations its build performed, and the
// candidates a scan of the same lattice with an unbounded buffer visits.
func (t *CandTable) Candidates() int64 { return t.candidates }

// method names the table engine in Result.Method.
func (t *CandTable) method() string {
	if t.grid == GridCoarse {
		return "table-coarse"
	}
	return "table"
}

// footLE returns the number of candidates in foot (ascending) with
// footprint ≤ bs.
func footLE(foot []int64, bs int64) int64 {
	return int64(sort.Search(len(foot), func(i int) bool { return foot[i] > bs }))
}

// stepAt returns the active step for bs, or false when no candidate fits.
func stepAt(steps []tableStep, bs int64) (tableStep, bool) {
	i := sort.Search(len(steps), func(i int) bool { return steps[i].foot > bs })
	if i == 0 {
		return tableStep{}, false
	}
	return steps[i-1], true
}

// Best returns the optimal feasible candidate for bufferSize — the exact
// Dataflow and Access the reference scan of the same lattice returns, in
// O(log n). Evaluations is 0 and CacheHits the number of feasible
// candidates the table served, so Evaluations + CacheHits equals the
// reference scan's Evaluations.
func (t *CandTable) Best(bufferSize int64) (Result, error) {
	if bufferSize < 3 {
		return Result{}, fmt.Errorf("search: buffer %d cannot hold 1×1 tiles: %w", bufferSize, errs.ErrBufferTooSmall)
	}
	st, ok := stepAt(t.steps, bufferSize)
	if !ok {
		return Result{}, fmt.Errorf("search: no feasible dataflow for %v in buffer %d: %w", t.mm, bufferSize, errs.ErrInfeasible)
	}
	var visits int64
	for i := range t.classFoot {
		visits += footLE(t.classFoot[i], bufferSize)
	}
	return Result{Dataflow: st.df, Access: st.access, CacheHits: visits, Method: t.method()}, nil
}

// BestStationary restricts Best to one tensor-rotation class: the optimum
// among dataflow keeping k.KindTensor() stationary. Visit counts cover that
// class only.
func (t *CandTable) BestStationary(k dataflow.StationaryKind, bufferSize int64) (Result, error) {
	ci := int(k)
	if ci < 0 || ci >= len(t.classSteps) {
		return Result{}, fmt.Errorf("search: invalid stationary kind %d: %w", k, errs.ErrInvalidDataflow)
	}
	if bufferSize < 3 {
		return Result{}, fmt.Errorf("search: buffer %d cannot hold 1×1 tiles: %w", bufferSize, errs.ErrBufferTooSmall)
	}
	st, ok := stepAt(t.classSteps[ci], bufferSize)
	if !ok {
		return Result{}, fmt.Errorf("search: no feasible %v-stationary dataflow for %v in buffer %d: %w", k, t.mm, bufferSize, errs.ErrInfeasible)
	}
	return Result{Dataflow: st.df, Access: st.access, CacheHits: footLE(t.classFoot[ci], bufferSize), Method: t.method()}, nil
}
