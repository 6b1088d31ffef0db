package search

import (
	"context"
	"fmt"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/invariant"
)

// SiteEval is the fault-injection point visited once per candidate cost
// evaluation, across every engine (the walk, the candidate tables and the
// GA). Chaos tests arm it via faultinject.Activate to prove each engine's
// panic-containment boundary (see panicError); the disarmed cost is one
// atomic load per visit.
const SiteEval = "search.eval"

// This file holds what the canonical walk and the candidate tables share
// over the (loop order, tile triple) lattice:
//
//   - Canonical tie-break: among equal-MA optima the engines keep the
//     candidate with the smallest (order index, T_M, T_K, T_L) tuple, which
//     is exactly the first minimum the frozen reference engines' order-major
//     scan encounters. This makes the optimum independent of the order in
//     which an engine visits candidates.
//   - Footprint monotonicity: Tiling.Footprint() = T_M·T_K + T_K·T_L +
//     T_M·T_L is strictly increasing in each tile size for fixed others, so
//     the largest feasible tile in one dimension is a closed-form bound.
//   - Panic containment and cooperative cancellation.

// scanBlockSize is the candidate capacity of the struct-of-arrays block a
// candidate-table build prices through. 256 rows (~24 KiB) keep the block
// in L1/L2 and the per-build allocation small.
const scanBlockSize = 256

// candKey identifies one candidate by its canonical coordinates, used to
// break MA ties deterministically.
type candKey struct {
	order, tm, tk, tl int
}

// less orders keys lexicographically by (order, tm, tk, tl).
func (k candKey) less(o candKey) bool {
	if k.order != o.order {
		return k.order < o.order
	}
	if k.tm != o.tm {
		return k.tm < o.tm
	}
	if k.tk != o.tk {
		return k.tk < o.tk
	}
	return k.tl < o.tl
}

// tileFootprint is Tiling.Footprint for a raw tile triple, evaluated before
// deciding whether the candidate is worth constructing at all.
func tileFootprint(tm, tk, tl int) int64 {
	return invariant.CheckedMul(int64(tm), int64(tk)) +
		invariant.CheckedMul(int64(tk), int64(tl)) +
		invariant.CheckedMul(int64(tm), int64(tl))
}

// fullRange returns the complete tile-size range [1, 2, …, n] of one
// dimension — the full lattice's "grid".
func fullRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// panicError converts a value recovered at an engine's panic-containment
// boundary into the taxonomy's ErrInternal class, naming the engine and
// preserving error payloads (so an injected fault stays classifiable as
// faultinject.ErrInjected).
func panicError(engine string, r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("search: panic in %s: %w: %w", engine, err, errs.ErrInternal)
	}
	return fmt.Errorf("search: panic in %s: %v: %w", engine, r, errs.ErrInternal)
}

// cancelCheck polls a context's Err at a coarse stride, so the walk pays
// one local counter increment per visit instead of a synchronized
// ctx.Err() call. It never calls Done: a context that reads its deadline
// from the clock (the service's) then arms no timer for the engine. The
// counter is unsynchronized by design; each walk owns its own cancelCheck.
type cancelCheck struct {
	ctx context.Context
	n   uint32
	// mask is the poll stride minus one (a power of two minus one); the
	// zero value polls on every call.
	mask uint32
}

// stopped reports whether the walk's context has ended, consulting
// ctx.Err() once every mask+1 calls.
func (c *cancelCheck) stopped() bool {
	c.n++
	if c.n&c.mask != 0 {
		return false
	}
	return c.ctx.Err() != nil
}

// enumBest accumulates one walk's running optimum and its pricing count.
type enumBest struct {
	best    Result
	bestKey candKey
	found   bool
}

// improves reports whether a candidate with the given MA total and canonical
// key would replace the running optimum — the allocation-free pre-check
// made before constructing a Dataflow for the rare improvement.
func (e *enumBest) improves(total int64, key candKey) bool {
	return !e.found || total < e.best.Access.Total ||
		(total == e.best.Access.Total && key.less(e.bestKey))
}

// take replaces the running optimum when the candidate is strictly better,
// or ties on MA with a smaller canonical key.
func (e *enumBest) take(df dataflow.Dataflow, a cost.Access, key candKey) {
	if e.improves(a.Total, key) {
		e.found = true
		e.best.Dataflow, e.best.Access, e.bestKey = df, a, key
	}
}
