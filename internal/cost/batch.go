package cost

import (
	"fmt"
	"math"

	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// This file is the batch-evaluation core: the data-centric dual of Evaluate,
// in the spirit of MAESTRO's block-wise cost analysis. Evaluate prices one
// candidate per call and re-derives everything from scratch each time —
// operator validation, dataflow validation, loop-position scans over the
// Order — which is exact but wasteful when a search engine visits 10⁴–10⁶
// candidates of the *same* operator under the *same* handful of loop orders.
// BatchEval hoists all of that per-(operator, order) work into construction:
// it validates once, resolves each order's reuse structure into a flat plan
// (which inner loops can evict which resident tile), and then evaluates
// whole struct-of-arrays Blocks of candidates with nothing left per
// candidate but integer arithmetic on the three trip counts. Consumers that
// price a few data-dependent points rather than a lattice use the same plan
// one candidate at a time through the scalar Eval entry. The results are
// bit-identical to Evaluate — every Access field, including OutputReads and
// the NRA class — which TestBatchEvalMatchesEvaluate and
// TestEvalMatchesEvaluate pin across randomized shapes, skewed decode-style
// shapes (M=1 GEMV, tiny-K, small-L), and every lattice candidate.

// Block is a struct-of-arrays batch of evaluation candidates over one
// operator: parallel slices of order indices, tile triples and precomputed
// footprints, with Out receiving the evaluated Access per candidate. Engines
// reuse one Block per scan, so the steady state allocates nothing per
// candidate (pinned by BenchmarkBatchKernel / TestEvalBlockZeroAllocs).
type Block struct {
	// OI indexes the candidate's loop order in the order list the kernel
	// was compiled with; TM, TK, TL are the tile triple.
	OI         []uint8
	TM, TK, TL []int32
	// Foot is the candidate's buffer footprint T_M·T_K + T_K·T_L + T_M·T_L,
	// precomputed by the generator (the enumeration engines already price it
	// for pruning) and copied into Out[i].Footprint verbatim.
	Foot []int64
	// Out receives the evaluated access per candidate; len(Out) == Len()
	// after an EvalBlock call.
	Out []Access
}

// NewBlock returns an empty block with capacity for n candidates.
func NewBlock(n int) *Block {
	return &Block{
		OI: make([]uint8, 0, n), TM: make([]int32, 0, n),
		TK: make([]int32, 0, n), TL: make([]int32, 0, n),
		Foot: make([]int64, 0, n), Out: make([]Access, 0, n),
	}
}

// Len returns the number of candidates currently in the block.
func (b *Block) Len() int { return len(b.OI) }

// Cap returns the block's candidate capacity.
func (b *Block) Cap() int { return cap(b.OI) }

// Full reports whether the block has reached its capacity.
func (b *Block) Full() bool { return len(b.OI) == cap(b.OI) }

// Reset empties the block, retaining capacity.
func (b *Block) Reset() {
	b.OI, b.TM, b.TK, b.TL = b.OI[:0], b.TM[:0], b.TK[:0], b.TL[:0]
	b.Foot, b.Out = b.Foot[:0], b.Out[:0]
}

// Push appends one candidate. The caller guarantees the block is not full
// and the tiles are valid for the kernel's operator.
func (b *Block) Push(oi uint8, tm, tk, tl int32, foot int64) {
	b.OI = append(b.OI, oi)
	b.TM, b.TK, b.TL = append(b.TM, tm), append(b.TK, tk), append(b.TL, tl)
	b.Foot = append(b.Foot, foot)
	b.Out = append(b.Out, Access{})
}

// orderPlan is one loop order's reuse structure, resolved once at kernel
// construction so per-candidate evaluation never walks the Order again.
// Every "which loops sit inner to X and touch tensor T" question Evaluate
// answers with a positional scan is precompiled into a short dim list; at
// evaluation time each list collapses to at most two trip-count compares.
type orderPlan struct {
	// innerA / innerB list the dims placed inner to the input tensor's
	// irrelevant loop that index that tensor — the loops whose advance
	// evicts the resident tile (inputTraffic's scan). innerC lists the
	// non-K dims inner to the K loop — the loops whose advance spills the
	// accumulating C tile (outputTraffic's scan). Dims are trip-slot
	// indices (0=M, 1=K, 2=L); only the first n entries are live.
	innerA, innerB, innerC    [2]uint8
	nInnerA, nInnerB, nInnerC uint8
	// stationary is the rotation class of the order, re-exported so SoA
	// consumers (candidate tables) never reconstruct an Order to ask.
	stationary dataflow.StationaryKind
}

// BatchEval is a cost kernel compiled for one operator and one order list.
// It is immutable after construction and safe for concurrent use; parallel
// scan workers share one kernel.
type BatchEval struct {
	mm                  op.MatMul
	m, k, l             int64
	sizeA, sizeB, sizeC int64
	ideal               int64
	plans               []orderPlan
}

// NewBatchEval is Compile for the Block path. Block stores tiles as int32,
// so an extent above math.MaxInt32 is rejected with errs.ErrInvalidOperator
// rather than truncated into a negative tile.
func NewBatchEval(mm op.MatMul, orders []dataflow.Order) (*BatchEval, error) {
	k, err := Compile(mm, orders)
	if err != nil {
		return nil, err
	}
	if mm.M > math.MaxInt32 || mm.K > math.MaxInt32 || mm.L > math.MaxInt32 {
		return nil, fmt.Errorf("cost: %v has an extent above the batch kernel's int32 tile range: %w", mm, errs.ErrInvalidOperator)
	}
	return k, nil
}

// Compile validates mm and every order once and compiles the per-order
// reuse plans. orders is typically dataflow.AllOrders(); candidates refer to
// it by index. The kernel prices any operator mm.Validate accepts through
// the scalar Eval entry, whatever its extents; blocks need NewBatchEval.
func Compile(mm op.MatMul, orders []dataflow.Order) (*BatchEval, error) {
	if err := mm.Validate(); err != nil {
		return nil, err
	}
	if len(orders) == 0 || len(orders) > 256 {
		return nil, fmt.Errorf("cost: batch kernel needs 1-256 orders, got %d", len(orders))
	}
	k := &BatchEval{
		mm: mm,
		m:  int64(mm.M), k: int64(mm.K), l: int64(mm.L),
		sizeA: mm.SizeA(), sizeB: mm.SizeB(), sizeC: mm.SizeC(),
		ideal: mm.IdealMA(),
		plans: make([]orderPlan, len(orders)),
	}
	for i, o := range orders {
		if err := o.Validate(); err != nil {
			return nil, err
		}
		p := &k.plans[i]
		p.stationary = o.Stationary().Kind()
		fill := func(t dataflow.Tensor, after dataflow.Dim, dims *[2]uint8, n *uint8) {
			pos := o.Position(after)
			for q := pos + 1; q < len(o); q++ {
				d := o[q]
				if d != after && t.HasDim(d) {
					dims[*n] = uint8(d)
					*n++
				}
			}
		}
		// Inputs: the irrelevant loop is L for A and M for B; an inner loop
		// indexing the tensor evicts its resident tile. Output: any non-K
		// loop inside the reduction spills the accumulating C tile.
		fill(dataflow.TensorA, dataflow.DimL, &p.innerA, &p.nInnerA)
		fill(dataflow.TensorB, dataflow.DimM, &p.innerB, &p.nInnerB)
		fill(dataflow.TensorC, dataflow.DimK, &p.innerC, &p.nInnerC)
	}
	return k, nil
}

// Op returns the operator the kernel was compiled for.
func (k *BatchEval) Op() op.MatMul { return k.mm }

// Regime describes the cost model's exact affine form inside one activity
// cell of order index oi. A cell fixes which trip counts exceed one
// (multi[d] for trip slot d: 0=M, 1=K, 2=L); within it every streaming
// condition in evalOne resolves to a constant, so the total memory access of
// any tiling in the cell is exactly
//
//	Total = base + coef[0]·n_M + coef[1]·n_K + coef[2]·n_L.
//
// Each coefficient is the size of the tensor the trip count streams — sizeB
// for n_M, sizeC for n_K, sizeA for n_L — or zero when the cell keeps that
// tensor resident. The innermost dim's coefficient is structurally zero for
// every cell (its inner dim list is empty), which is what caps the analytic
// optimizer's per-cell problems at two free variables. Pinned bit-identical
// to evalOne by TestRegimeMatchesEvalOne.
func (k *BatchEval) Regime(oi uint8, multi [3]bool) (base int64, coef [3]int64) {
	p := &k.plans[oi]
	streams := func(inner []uint8, irr bool) bool {
		if !irr {
			return false
		}
		for _, d := range inner {
			if multi[d] {
				return true
			}
		}
		return false
	}
	if streams(p.innerA[:p.nInnerA], multi[2]) {
		coef[2] = k.sizeA
	} else {
		base += k.sizeA
	}
	if streams(p.innerB[:p.nInnerB], multi[0]) {
		coef[0] = k.sizeB
	} else {
		base += k.sizeB
	}
	if streams(p.innerC[:p.nInnerC], multi[1]) {
		coef[1] = k.sizeC
	} else {
		base += k.sizeC
	}
	return base, coef
}

// Stationary returns the rotation class of order index oi.
func (k *BatchEval) Stationary(oi uint8) dataflow.StationaryKind {
	return k.plans[oi].stationary
}

// EvalBlock evaluates every candidate in b, writing b.Out[i] for each. The
// results are bit-identical to Evaluate on the corresponding Dataflow.
func (k *BatchEval) EvalBlock(b *Block) {
	for i := range b.OI {
		k.evalOne(&b.Out[i], b.OI[i], int64(b.TM[i]), int64(b.TK[i]), int64(b.TL[i]), b.Foot[i])
	}
}

// Eval is the scalar entry: it prices one candidate, order index oi with
// tiles 1 ≤ T_D ≤ D, and computes its footprint. It serves consumers that
// visit a few data-dependent points rather than a lattice (the principle
// optimizer's walks and constructions, the genetic engine), allocates
// nothing, and is bit-identical to Evaluate on the corresponding Dataflow.
func (k *BatchEval) Eval(oi uint8, tm, tk, tl int64) Access {
	foot := invariant.CheckedMul(tm, tk) + invariant.CheckedMul(tk, tl) + invariant.CheckedMul(tm, tl)
	var a Access
	k.evalOne(&a, oi, tm, tk, tl, foot)
	return a
}

// evalOne prices a single candidate from the compiled plan into *a: three
// trip-count divisions, at most six trip compares, and the checked traffic
// products. Writing through a, rather than returning the Access, lets
// EvalBlock fill its output row in place and spares the caller copying the
// struct straight after its fields were stored, which stalled the scalar
// walks.
func (k *BatchEval) evalOne(a *Access, oi uint8, tm, tk, tl, foot int64) {
	invariant.Assert(tm >= 1 && tm <= k.m && tk >= 1 && tk <= k.k && tl >= 1 && tl <= k.l,
		"cost: batch candidate tiles (%d,%d,%d) outside %v", tm, tk, tl, k.mm)
	p := &k.plans[oi]
	var trips [3]int64
	trips[0] = (k.m + tm - 1) / tm
	trips[1] = (k.k + tk - 1) / tk
	trips[2] = (k.l + tl - 1) / tl

	a.Footprint = foot

	// Input A (irrelevant loop L): one load unless an inner A-indexing loop
	// advances, then the whole tensor streams once per L iteration.
	ta := k.sizeA
	if nIrr := trips[2]; nIrr > 1 {
		for _, d := range p.innerA[:p.nInnerA] {
			if trips[d] > 1 {
				ta = invariant.CheckedMul(k.sizeA, nIrr)
				break
			}
		}
	}
	// Input B (irrelevant loop M), symmetric.
	tb := k.sizeB
	if nIrr := trips[0]; nIrr > 1 {
		for _, d := range p.innerB[:p.nInnerB] {
			if trips[d] > 1 {
				tb = invariant.CheckedMul(k.sizeB, nIrr)
				break
			}
		}
	}
	// Output C: accumulate in place unless a non-K loop inside the reduction
	// advances; a spill writes every visit and reads back every revisit.
	writes, reads := k.sizeC, int64(0)
	if nK := trips[1]; nK > 1 {
		for _, d := range p.innerC[:p.nInnerC] {
			if trips[d] > 1 {
				writes = invariant.CheckedMul(k.sizeC, nK)
				reads = invariant.CheckedMul(k.sizeC, nK-1)
				break
			}
		}
	}

	a.PerTensor[dataflow.TensorA] = ta
	a.PerTensor[dataflow.TensorB] = tb
	a.PerTensor[dataflow.TensorC] = writes
	a.OutputWrites, a.OutputReads = writes, reads
	a.Total = ta + tb + writes

	n := 0
	if ta == k.sizeA {
		n++
	}
	if tb == k.sizeB {
		n++
	}
	if writes == k.sizeC {
		n++
	}
	a.NRA = dataflow.NRAClass(n)
	invariant.Assert(a.Total >= k.ideal,
		"MA total %d below communication lower bound %d for %v (batch)", a.Total, k.ideal, k.mm)
}
