// Package core implements the paper's primary contribution: principle-based,
// one-shot dataflow optimization for matrix-multiplication operators
// (Principles 1–3, §III-A) and the buffer-regime classification that selects
// between Single-, Two- and Three-NRA dataflow (§III-A4). Chain-level fusion
// decisions (Principle 4) build on this in principle4.go.
//
// Unlike the search baseline in internal/search, which explores the
// O(|orders| × M·K·L) tiling/scheduling space, this package *constructs* a
// constant-size candidate set directly from the principles and solves each
// candidate's tile sizes from its closed-form buffer constraint. The best
// constructed candidate is provably communication-optimal in the regimes the
// paper analyzes, which internal/search cross-validates (Fig. 9).
package core

import (
	"fmt"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/op"
)

// Regime classifies the buffer size against the operator, per §III-A4.
type Regime uint8

// The four buffer regimes.
const (
	// RegimeTiny: BS ≤ Dmin²/4 → Single-NRA.
	RegimeTiny Regime = iota
	// RegimeSmall: Dmin²/4 < BS ≤ Dmin²/2 → Single- or Two-NRA (the
	// crossover lies inside this band; evaluate both).
	RegimeSmall
	// RegimeMedium: Dmin²/2 < BS ≤ Tensor_min → Two-NRA.
	RegimeMedium
	// RegimeLarge: BS > Tensor_min → Three-NRA.
	RegimeLarge
)

func (r Regime) String() string {
	switch r {
	case RegimeTiny:
		return "tiny"
	case RegimeSmall:
		return "small"
	case RegimeMedium:
		return "medium"
	case RegimeLarge:
		return "large"
	}
	return fmt.Sprintf("Regime(%d)", uint8(r))
}

// Classify returns the buffer regime of bufferSize (elements) for mm.
func Classify(mm op.MatMul, bufferSize int64) Regime {
	dmin := int64(mm.MinDim())
	q := dmin * dmin
	switch {
	case bufferSize <= q/4:
		return RegimeTiny
	case bufferSize <= q/2:
		return RegimeSmall
	case bufferSize <= mm.MinTensor():
		return RegimeMedium
	default:
		return RegimeLarge
	}
}

// CrossoverBand returns the [Dmin²/4, Dmin²/2] buffer range inside which the
// Single-/Two-NRA crossover falls (§III-A4).
func CrossoverBand(mm op.MatMul) (lo, hi int64) {
	d := int64(mm.MinDim())
	return d * d / 4, d * d / 2
}

// Candidate is one principle-constructed dataflow with its evaluated cost.
type Candidate struct {
	Dataflow  dataflow.Dataflow
	Access    cost.Access
	Principle int    // which principle (1, 2 or 3) constructed it
	Note      string // human-readable construction summary
}

// Result is the outcome of principle-based optimization.
type Result struct {
	Candidate
	Regime Regime
	// Considered lists every candidate the principles constructed, best
	// first is not guaranteed; Result.Candidate is the winner.
	Considered []Candidate
}

// ErrBufferTooSmall is returned when even 1×1×1 tiles do not fit. It wraps
// the library-wide errs.ErrBufferTooSmall sentinel.
var ErrBufferTooSmall = fmt.Errorf("core: buffer cannot hold three 1×1 tiles: %w", errs.ErrBufferTooSmall)

// minimumBuffer is the footprint of 1×1 tiles for all three tensors.
const minimumBuffer = 3

// Optimize applies Principles 1–3 to construct the optimal dataflow for mm
// under a buffer of bufferSize elements, one-shot. In the small-buffer band
// both the Single-NRA and Two-NRA constructions are evaluated and the
// cheaper one wins, exactly as the paper prescribes. It compiles mm's cost
// kernel once and prices every construction and every P1 walk point
// through it; only the candidates it returns carry a validated Dataflow.
func Optimize(mm op.MatMul, bufferSize int64) (Result, error) {
	k, err := compile(mm)
	if err != nil {
		return Result{}, err
	}
	if bufferSize < minimumBuffer {
		return Result{}, fmt.Errorf("%w: have %d elements", ErrBufferTooSmall, bufferSize)
	}
	regime := Classify(mm, bufferSize)
	// Evaluate the constant-size principle candidate set. Candidates are
	// ordered so that ties resolve toward the construction the regime
	// predicts (P3 residency, then P2 untiling, then P1 stationarity, the
	// paper's "smallest" choice first within each): many constructions
	// coincide on the same dataflow at regime boundaries, and the note on
	// the winner should name the principle that predicts it.
	//
	// Optimality: for any loop order the MA depends on exactly two tile
	// dimensions (the third is free and set to 1), and the P1 solve covers
	// the feasible frontier of those two for each of the three order
	// classes — one point per run of the partner tile's trip count, the
	// run's minimum (dataflow.Frontier.Walk) — so the best candidate here
	// is the exact optimum of the entire tiling/scheduling space, which the
	// test suite cross-validates against exhaustive search.
	var cands []Candidate
	if c, ok := threeNRA(k, bufferSize, smallestTensor(mm)); ok {
		cands = append(cands, c)
	}
	cands = appendTwoNRA(cands, k, bufferSize, smallestDim(mm))
	for _, d := range dataflow.Dims() {
		if d == smallestDim(mm) {
			continue
		}
		cands = appendTwoNRA(cands, k, bufferSize, d)
	}
	if c, ok := singleNRA(k, bufferSize, smallestTensor(mm)); ok {
		cands = append(cands, c)
	}
	for _, t := range dataflow.Tensors() {
		if t == smallestTensor(mm) {
			continue
		}
		if c, ok := singleNRA(k, bufferSize, t); ok {
			cands = append(cands, c)
		}
	}
	best, ok := bestOf(cands)
	if !ok {
		return Result{}, fmt.Errorf("core: no feasible principle candidate for %v with buffer %d: %w", mm, bufferSize, errs.ErrInfeasible)
	}
	return Result{Candidate: best, Regime: regime, Considered: cands}, nil
}

// orders is the loop-order list every core kernel is compiled with; a
// kernel names an order by its index here (orderIndex).
var orders = dataflow.AllOrders()

// compile validates mm and compiles its cost kernel over every loop order.
// The kernel's scalar entry serves every valid operator, so core has one
// pricing path whatever the extents.
func compile(mm op.MatMul) (*cost.BatchEval, error) {
	return cost.Compile(mm, orders)
}

// orderIndex returns o's index in orders.
func orderIndex(o dataflow.Order) uint8 {
	for i, x := range orders {
		if x == o {
			return uint8(i)
		}
	}
	panic(fmt.Sprintf("core: order %v is not a permutation of M, K, L", o))
}

// price evaluates tiling ti under order index oi through kernel k.
func price(k *cost.BatchEval, oi uint8, ti dataflow.Tiling) cost.Access {
	return k.Eval(oi, int64(ti.TM), int64(ti.TK), int64(ti.TL))
}

// CandidateSet constructs every principle-derived candidate irrespective of
// regime: all three stationary choices (P1), all four untiled-dimension
// constructions (P2), and all three resident-tensor choices (P3). The strict
// principle choices are a subset; the full set powers the ablation studies.
// It returns no candidate for an invalid operator.
func CandidateSet(mm op.MatMul, bufferSize int64) []Candidate {
	k, err := compile(mm)
	if err != nil {
		return nil
	}
	var cands []Candidate
	for _, t := range dataflow.Tensors() {
		if c, ok := singleNRA(k, bufferSize, t); ok {
			cands = append(cands, c)
		}
	}
	for _, d := range dataflow.Dims() {
		cands = appendTwoNRA(cands, k, bufferSize, d)
	}
	for _, t := range dataflow.Tensors() {
		if c, ok := threeNRA(k, bufferSize, t); ok {
			cands = append(cands, c)
		}
	}
	return cands
}

// SingleNRACandidate constructs the Principle 1 dataflow with the given
// stationary tensor: the stationary tensor's two tile dimensions are
// maximized (balanced against each other under the Eq. 2 constraint) and the
// remaining dimension's tile is 1. It is the exact integer solve of
// min MKL(1/T1 + 1/T2) s.t. T1·T2 + T1 + T2 ≤ BS, which the unconstrained
// frontier walk (frontierCandidate) performs pricing one T1 per run of
// T2's trip count. It reports false for an invalid operator.
func SingleNRACandidate(mm op.MatMul, bufferSize int64, stationary dataflow.Tensor) (Candidate, bool) {
	k, err := compile(mm)
	if err != nil {
		return Candidate{}, false
	}
	return singleNRA(k, bufferSize, stationary)
}

func singleNRA(k *cost.BatchEval, bufferSize int64, stationary dataflow.Tensor) (Candidate, bool) {
	c, ok := frontierCandidate(k, bufferSize, stationary, Unconstrained)
	if !ok {
		return Candidate{}, false
	}
	c.Principle = 1
	c.Note = notes.p1[stationary]
	return c, true
}

// notes holds every candidate note that depends only on a tensor or a
// dimension, formatted once, so constructing a candidate formats nothing.
var notes = formatNotes()

type noteTable struct {
	p1, p3   [3]string    // by stationary or resident tensor
	p2       [3][3]string // by untiled dimension, then redundant tensor
	frontier [3]string    // by stationary tensor, at quantum 1
}

func formatNotes() (n noteTable) {
	for _, t := range dataflow.Tensors() {
		n.p1[t] = fmt.Sprintf("P1: %s stationary (%s)", t, t.Kind())
		dd := t.Dims()
		n.p3[t] = fmt.Sprintf("P3: keep %s resident, untile %s and %s", t, dd[0], dd[1])
		n.frontier[t] = frontierNote(t, 1)
	}
	for _, d := range dataflow.Dims() {
		for _, r := range dataflow.TensorsWithDim(d) {
			// The maximized dimension is the one r does not index.
			p := dataflow.DimM
			for _, e := range dataflow.Dims() {
				if e != d && !r.HasDim(e) {
					p = e
				}
			}
			n.p2[d][r] = fmt.Sprintf("P2: untile %s, %s redundant, maximize T_%s", d, r, p)
		}
	}
	return n
}

// TwoNRACandidate constructs the Principle 2 dataflow that untiles dimension
// untiled and lets tensor redundant carry the residual traffic. redundant
// must be an input tensor (A or B) containing the untiled dimension; making
// the output redundant costs extra partial-sum read-backs and is never
// principle-optimal. The tile of the dimension absent from the redundant
// tensor is maximized under the Eq. 4 constraint; the remaining dimension's
// tile is 1. It reports false for an invalid operator.
func TwoNRACandidate(mm op.MatMul, bufferSize int64, untiled dataflow.Dim, redundant dataflow.Tensor) (Candidate, bool) {
	k, err := compile(mm)
	if err != nil {
		return Candidate{}, false
	}
	return twoNRA(k, bufferSize, untiled, redundant)
}

func twoNRA(k *cost.BatchEval, bufferSize int64, untiled dataflow.Dim, redundant dataflow.Tensor) (Candidate, bool) {
	if redundant == dataflow.TensorC || !redundant.HasDim(untiled) {
		return Candidate{}, false
	}
	mm := k.Op()
	// P is the dimension not indexing the redundant tensor (maximized);
	// q is the redundant tensor's other dimension (minimized).
	var p, q dataflow.Dim
	for _, d := range dataflow.Dims() {
		switch {
		case d == untiled:
		case redundant.HasDim(d):
			q = d
		default:
			p = d
		}
	}
	order := dataflow.Order{p, untiled, q}

	uExt := int64(untiled.Extent(mm))
	// Footprint with T_untiled = extent, T_q = 1 is linear in T_p:
	// f(t) = a·t + b. Derive a and b from the tensor structure.
	base := dataflow.UnitTiling().WithTile(untiled, int(uExt))
	b0 := base.Footprint()
	b1 := base.WithTile(p, 2).Footprint()
	a := b1 - b0 // cost per unit of T_p
	tp := int64(1)
	if a > 0 {
		tp = 1 + (bufferSize-b0)/a
	}
	if tp < 1 {
		return Candidate{}, false
	}
	if pExt := int64(p.Extent(mm)); tp > pExt {
		tp = pExt
	}
	ti := base.WithTile(p, int(tp))
	acc := price(k, orderIndex(order), ti)
	if acc.Footprint > bufferSize {
		return Candidate{}, false
	}
	return Candidate{
		Dataflow:  dataflow.Must(mm, order, ti),
		Access:    acc,
		Principle: 2,
		Note:      notes.p2[untiled][redundant],
	}, true
}

// appendTwoNRA appends every valid Principle 2 candidate that untiles d:
// both input-redundant choices when d = K, one otherwise.
func appendTwoNRA(cands []Candidate, k *cost.BatchEval, bufferSize int64, d dataflow.Dim) []Candidate {
	for _, r := range dataflow.TensorsWithDim(d) {
		if c, ok := twoNRA(k, bufferSize, d, r); ok {
			cands = append(cands, c)
		}
	}
	return cands
}

// ThreeNRACandidate constructs the Principle 3 dataflow keeping tensor
// resident fully on-chip (both of its dimensions untiled). Per the
// principle, the remaining dimension's tile size is a don't-care for MA; it
// is set to the largest value that fits to help the mapping layer. It
// reports false for an invalid operator.
func ThreeNRACandidate(mm op.MatMul, bufferSize int64, resident dataflow.Tensor) (Candidate, bool) {
	k, err := compile(mm)
	if err != nil {
		return Candidate{}, false
	}
	return threeNRA(k, bufferSize, resident)
}

func threeNRA(k *cost.BatchEval, bufferSize int64, resident dataflow.Tensor) (Candidate, bool) {
	mm := k.Op()
	dd := resident.Dims()
	d1, d2 := dd[0], dd[1]
	third := irrelevantDimOf(resident)

	base := dataflow.UnitTiling().
		WithTile(d1, d1.Extent(mm)).
		WithTile(d2, d2.Extent(mm))
	b0 := base.Footprint()
	if b0 > bufferSize {
		return Candidate{}, false
	}
	b1 := base.WithTile(third, 2).Footprint()
	a := b1 - b0
	t3 := int64(1)
	if a > 0 {
		t3 = 1 + (bufferSize-b0)/a
	}
	if ext := int64(third.Extent(mm)); t3 > ext {
		t3 = ext
	}
	ti := base.WithTile(third, int(t3))
	// Any order works for MA here; put the tiled loop outermost so the
	// resident tensor's dims are innermost (transparent, trip count 1).
	order := dataflow.Order{third, d1, d2}
	acc := price(k, orderIndex(order), ti)
	if acc.Footprint > bufferSize {
		return Candidate{}, false
	}
	return Candidate{
		Dataflow:  dataflow.Must(mm, order, ti),
		Access:    acc,
		Principle: 3,
		Note:      notes.p3[resident],
	}, true
}

// smallestTensor returns the operand with the fewest elements (ties resolve
// in A, B, C order, matching the paper's examples).
func smallestTensor(mm op.MatMul) dataflow.Tensor {
	best := dataflow.TensorA
	for _, t := range dataflow.Tensors() {
		if t.Size(mm) < best.Size(mm) {
			best = t
		}
	}
	return best
}

// smallestDim returns the loop dimension with the smallest extent (ties
// resolve in M, K, L order).
func smallestDim(mm op.MatMul) dataflow.Dim {
	best := dataflow.DimM
	for _, d := range dataflow.Dims() {
		if d.Extent(mm) < best.Extent(mm) {
			best = d
		}
	}
	return best
}

// canonicalOrderForStationary returns the canonical loop order keeping t
// stationary.
func canonicalOrderForStationary(t dataflow.Tensor) dataflow.Order {
	switch t {
	case dataflow.TensorC:
		return dataflow.OrderOS
	case dataflow.TensorB:
		return dataflow.OrderWS
	case dataflow.TensorA:
		return dataflow.OrderIS
	}
	panic("core: invalid tensor")
}

func irrelevantDimOf(t dataflow.Tensor) dataflow.Dim {
	for _, d := range dataflow.Dims() {
		if !t.HasDim(d) {
			return d
		}
	}
	panic("core: tensor indexes every dim")
}

func bestOf(cands []Candidate) (Candidate, bool) {
	if len(cands) == 0 {
		return Candidate{}, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Access.Total < best.Access.Total {
			best = c
		}
	}
	return best, true
}
