package core

import (
	"fmt"
	"math"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/fusion"
	"fusecu/internal/op"
)

// Constraint restricts the dataflow space to what a platform's hardware can
// execute (Table III's stationary and tiling flexibility columns). The zero
// value is unconstrained.
type Constraint struct {
	// Stationaries lists the allowed stationary kinds; empty means all.
	Stationaries []dataflow.StationaryKind
	// TileQuantum forces buffer-level tile sizes to multiples of this value
	// (a dimension's full extent is always allowed — "no tiling" needs no
	// hardware support). 0 or 1 means any integer tile.
	TileQuantum int
	// Square forces the stationary tensor's two tile dimensions to be equal
	// (clamped by extents) — the "low tiling flexibility" of fixed square
	// systolic arrays that stream same-shaped blocks in both directions.
	Square bool
	// FusedTileAlign restricts fused-dataflow tile sizes to multiples of
	// this value so stationary fused tiles match the PE array (0/1 = no
	// alignment). FuseCU aligns to its CU dimension.
	FusedTileAlign int
	// MaxStationaryTile caps the stationary tensor's tile dimensions
	// (0 = unbounded). Fixed systolic arrays stage the stationary operand
	// through a shallow FIFO (TPUv4i's weight FIFO holds four 128×128
	// blocks), so they cannot hold arbitrarily large stationary tiles the
	// way adaptive-tile architectures can; this cap is what denies them the
	// untiled-dimension (Two-/Three-NRA) dataflow on large dimensions.
	MaxStationaryTile int
}

// Unconstrained is the empty constraint.
var Unconstrained = Constraint{}

// AllowsStationary reports whether kind is inside the constraint.
func (c Constraint) AllowsStationary(kind dataflow.StationaryKind) bool {
	if len(c.Stationaries) == 0 {
		return true
	}
	for _, s := range c.Stationaries {
		if s == kind {
			return true
		}
	}
	return false
}

// quantum returns the effective tile quantum (≥ 1).
func (c Constraint) quantum() int {
	if c.TileQuantum < 1 {
		return 1
	}
	return c.TileQuantum
}

// OptimizeConstrained is principle-based optimization inside a restricted
// dataflow space. For each allowed stationary it walks the feasible frontier
// of the two MA-relevant tile dimensions over the quantized tile lattice
// (the same construction Optimize uses with quantum 1) and returns the best
// candidate. Like Optimize it compiles mm's cost kernel once and prices
// every walk point through it. The reported Principle is inferred from the
// winning dataflow's NRA class.
func OptimizeConstrained(mm op.MatMul, bufferSize int64, c Constraint) (Result, error) {
	k, err := compile(mm)
	if err != nil {
		return Result{}, err
	}
	if bufferSize < minimumBuffer {
		return Result{}, fmt.Errorf("%w: have %d elements", ErrBufferTooSmall, bufferSize)
	}
	var cands []Candidate
	for _, t := range dataflow.Tensors() {
		if !c.AllowsStationary(t.Kind()) {
			continue
		}
		if cand, ok := frontierCandidate(k, bufferSize, t, c); ok {
			cands = append(cands, cand)
		}
	}
	best, ok := bestOf(cands)
	if !ok {
		return Result{}, fmt.Errorf("core: no feasible dataflow for %v in buffer %d under %+v: %w", mm, bufferSize, c, errs.ErrInfeasible)
	}
	return Result{Candidate: best, Regime: Classify(mm, bufferSize), Considered: cands}, nil
}

// frontierCandidate solves the feasible (T_d1, T_d2) frontier of the
// stationary tensor's dimensions over the constraint's tile lattice, with
// the third dimension's tile pinned to its minimum allowed value. T_d2 is
// the largest allowed tile the footprint admits beside T_d1. It prices
// points through the operator's compiled kernel k and builds a Dataflow
// only for the winner, the first minimizer of a sweep over every lattice
// T_d1.
//
// dataflow.Frontier.Walk finds it pricing one point per run of T_d2's trip
// count, since Total depends on the tiles only through their trip counts
// and T_d2 never grows with T_d1. Square breaks that premise (T_d2 follows
// T_d1 upward), so it keeps the per-lattice-point scan. Either walk stops
// at the first T_d1 beside which no allowed T_d2 fits: the footprint's room
// for T_d2 only shrinks as T_d1 grows, so no later tile fits either.
func frontierCandidate(k *cost.BatchEval, bufferSize int64, stationary dataflow.Tensor, c Constraint) (Candidate, bool) {
	mm := k.Op()
	dd := stationary.Dims()
	d1, d2 := dd[0], dd[1]
	third := irrelevantDimOf(stationary)
	order := canonicalOrderForStationary(stationary)
	oi := orderIndex(order)

	ext1, ext2, ext3 := d1.Extent(mm), d2.Extent(mm), third.Extent(mm)
	t3 := minAllowedTile(c, ext3)
	if t3 == 0 {
		return Candidate{}, false
	}
	q := c.quantum()
	cap1, cap2 := ext1, ext2
	if m := c.MaxStationaryTile; m > 0 {
		cap1, cap2 = min(cap1, m), min(cap2, m)
	}
	// T_d1 walks the quantum multiples below cap1, then cap1. T_d2 takes
	// the quantum multiples up to cap2, and ext2 itself when uncapped.
	lim2 := ext2
	if cap2 < ext2 {
		if lim2 = cap2 / q * q; lim2 == 0 {
			return Candidate{}, false
		}
	}
	// Footprint: t1·t2 + t3·(t1 + t2) ≤ BS.
	f := dataflow.Frontier{
		X: dataflow.Lattice{Ext: ext1, Quantum: q, Limit: cap1},
		Y: dataflow.Lattice{Ext: ext2, Quantum: q, Limit: lim2},
		C: int64(t3), Budget: bufferSize,
	}
	tiling := func(t1, t2 int) dataflow.Tiling {
		return dataflow.UnitTiling().WithTile(third, t3).WithTile(d1, t1).WithTile(d2, t2)
	}
	total := func(t1, t2 int) int64 { return price(k, oi, tiling(t1, t2)).Total }
	var (
		t1, t2 int
		ok     bool
	)
	if c.Square {
		t1, t2, ok = squareScan(f, total)
	} else {
		t1, t2, ok = f.Walk(total)
	}
	if !ok {
		return Candidate{}, false
	}
	best := tiling(t1, t2)
	acc := price(k, oi, best)
	note := notes.frontier[stationary]
	if q > 1 {
		note = frontierNote(stationary, q)
	}
	return Candidate{
		Dataflow:  dataflow.Must(mm, order, best),
		Access:    acc,
		Principle: principleForNRA(acc.NRA),
		Note:      note,
	}, true
}

func frontierNote(stationary dataflow.Tensor, quantum int) string {
	return fmt.Sprintf("constrained frontier: %s stationary (%s), quantum %d",
		stationary, stationary.Kind(), quantum)
}

// squareScan is the frontier walk under Constraint.Square. Square arrays
// stream equal-sized blocks in both directions, so T_d2 may exceed T_d1
// only once T_d1 is clamped at its cap. It prices every lattice T_d1 and
// keeps the first strict minimum.
func squareScan(f dataflow.Frontier, total func(t1, t2 int) int64) (int, int, bool) {
	var (
		found    bool
		best     int64
		bt1, bt2 int
		q, cap1  = f.X.Quantum, f.X.Limit
	)
	for t1 := min(q, cap1); ; t1 = min(t1+q, cap1) {
		room := f.Room(t1)
		if t1 < cap1 {
			room = min(room, int64(t1))
		}
		t2 := f.Y.Down(room)
		if t2 == 0 {
			break
		}
		if v := total(t1, t2); !found || v < best {
			found, best, bt1, bt2 = true, v, t1, t2
		}
		if t1 == cap1 {
			break
		}
	}
	return bt1, bt2, found
}

// minAllowedTile returns the smallest legal tile for a dimension extent, or
// 0 when the extent is unusable (never for positive extents).
func minAllowedTile(c Constraint, extent int) int {
	q := c.quantum()
	if extent <= q {
		return extent
	}
	return q
}

func principleForNRA(n dataflow.NRAClass) int {
	switch n {
	case dataflow.TwoNRA:
		return 2
	case dataflow.ThreeNRA:
		return 3
	default:
		return 1
	}
}

// PlanOptions parameterize chain planning for a specific platform.
type PlanOptions struct {
	Constraint Constraint
	// AllowFusion enables Principle 4 pairing; platforms without compute-
	// unit fusion run every operator unfused.
	AllowFusion bool
}

// DecideFusionConstrained is DecideFusion with the intra-operator optima
// restricted to a platform's dataflow space. Fused dataflow itself is not
// quantized: the fused patterns are precisely what FuseCU's XS PEs and CU
// interconnect execute natively.
func DecideFusionConstrained(pair fusion.Pair, bufferSize int64, c Constraint) (FusionDecision, error) {
	first, err := OptimizeConstrained(pair.First, bufferSize, c)
	if err != nil {
		return FusionDecision{}, fmt.Errorf("core: producer: %w", err)
	}
	second, err := OptimizeConstrained(pair.Second, bufferSize, c)
	if err != nil {
		return FusionDecision{}, fmt.Errorf("core: consumer: %w", err)
	}
	return decideFusion(pair, bufferSize, c, first, second), nil
}

// decideFusion applies Principle 4 to a pair whose operators' constrained
// optima are already known.
func decideFusion(pair fusion.Pair, bufferSize int64, c Constraint, first, second Result) FusionDecision {
	d := FusionDecision{
		Pair:      pair,
		FirstNRA:  first.Access.NRA,
		SecondNRA: second.Access.NRA,
		First:     first,
		Second:    second,
		UnfusedMA: first.Access.Total + second.Access.Total,
	}
	d.SameNRA = d.FirstNRA == d.SecondNRA
	if !d.SameNRA {
		return d
	}
	best, ok := fusion.BestAligned(pair, bufferSize, c.FusedTileAlign)
	if !ok {
		return d
	}
	d.FusedMA = best.Access.Total
	d.Gain = d.UnfusedMA - d.FusedMA
	if d.Gain > 0 {
		d.Fuse = true
		d.Fused = best
	}
	return d
}

// PlanChainOpts is PlanChain under a platform's dataflow-space restrictions.
func PlanChainOpts(c *op.Chain, bufferSize int64, opts PlanOptions) (ChainPlan, error) {
	if err := c.Validate(); err != nil {
		return ChainPlan{}, err
	}
	n := c.Len()
	intra := make([]Result, n)
	for i, mm := range c.Ops {
		r, err := OptimizeConstrained(mm, bufferSize, opts.Constraint)
		if err != nil {
			return ChainPlan{}, fmt.Errorf("core: chain op %d: %w", i, err)
		}
		intra[i] = r
	}
	var decisions []FusionDecision
	pairDec := make([]*FusionDecision, max(0, n-1))
	if opts.AllowFusion {
		for i := 0; i+1 < n; i++ {
			pair, err := fusion.NewPair(c.Ops[i], c.Ops[i+1])
			if err != nil {
				return ChainPlan{}, fmt.Errorf("core: chain link %d: %w", i, err)
			}
			// Each operator is planned once: the pair reuses the intra
			// optima instead of re-optimizing both of its operators.
			d := decideFusion(pair, bufferSize, opts.Constraint, intra[i], intra[i+1])
			decisions = append(decisions, d)
			if d.Fuse {
				dd := d
				pairDec[i] = &dd
			}
		}
	}

	const inf = int64(math.MaxInt64) // op.ValidateAll keeps every real total below it
	best := make([]int64, n+1)
	choice := make([]int, n+1)
	for i := 1; i <= n; i++ {
		best[i] = inf
		if v := best[i-1] + intra[i-1].Access.Total; v < best[i] {
			best[i], choice[i] = v, 1
		}
		if i >= 2 && pairDec[i-2] != nil {
			if v := best[i-2] + pairDec[i-2].FusedMA; v < best[i] {
				best[i], choice[i] = v, 2
			}
		}
	}

	var groups []Group
	for i := n; i > 0; {
		if choice[i] == 2 {
			d := pairDec[i-2]
			fc := d.Fused
			groups = append(groups, Group{Start: i - 2, Len: 2, MA: d.FusedMA, Fused: &fc})
			i -= 2
			continue
		}
		r := intra[i-1]
		groups = append(groups, Group{Start: i - 1, Len: 1, MA: r.Access.Total, Intra: &r})
		i--
	}
	for l, r := 0, len(groups)-1; l < r; l, r = l+1, r-1 {
		groups[l], groups[r] = groups[r], groups[l]
	}

	var unfused int64
	for _, r := range intra {
		unfused += r.Access.Total
	}
	return ChainPlan{
		Chain:     c,
		Groups:    groups,
		TotalMA:   best[n],
		UnfusedMA: unfused,
		Decisions: decisions,
	}, nil
}
