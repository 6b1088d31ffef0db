package search

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/faultinject"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// SiteEval is the fault-injection point visited once per candidate cost
// evaluation, across every engine (enumeration and genetic). Chaos tests arm
// it via faultinject.Activate to prove the panic-containment boundaries
// below; the disarmed cost is one atomic load per visit.
const SiteEval = "search.eval"

// This file is the shared enumeration core behind Exhaustive,
// ExhaustiveCoarse and their Parallel variants. All of them walk the same
// candidate lattice (tile triples × loop orders) and must return the exact
// result the unoptimized reference engines return, so the fast paths here
// lean on two properties the tests pin down:
//
//   - Footprint monotonicity: Tiling.Footprint() = T_M·T_K + T_K·T_L +
//     T_M·T_L is strictly increasing in each tile size for fixed others, so
//     once a candidate overflows the buffer every larger tile in the same
//     loop does too — the scan breaks instead of filtering per candidate.
//   - Canonical tie-break: among equal-MA optima the engines keep the
//     candidate with the smallest (order index, T_M, T_K, T_L) tuple, which
//     is exactly the first minimum the reference engines' order-major scan
//     encounters. This makes the optimum independent of enumeration order
//     and of how the parallel engines shard the lattice.
//
// Candidates flow through flat struct-of-arrays blocks (cost.Block) rather
// than one evaluation call per candidate: generation pushes (order, tile
// triple, footprint) rows into a reused block and a precompiled batch kernel
// (cost.BatchEval) prices the whole block per call. Nothing per candidate is
// validated, dispatched through an interface, or allocated — the reference
// engines' per-candidate construction overhead is exactly the regression
// this layout removes.

// scanBlockSize is the candidate capacity of one struct-of-arrays scan
// block. 256 rows (~24 KiB) keep each scanner's block in L1/L2 and the
// per-call allocation small.
const scanBlockSize = 256

// candKey identifies one enumeration candidate by its canonical
// coordinates, used to break MA ties deterministically.
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
// dimension — the exhaustive engines' "grid".
func fullRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// panicError converts a recovered panic value into the taxonomy's
// ErrInternal class, preserving error payloads (so an injected fault stays
// classifiable as faultinject.ErrInjected).
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("search: panic during scan: %w: %w", err, errs.ErrInternal)
	}
	return fmt.Errorf("search: panic during scan: %v: %w", r, errs.ErrInternal)
}

// guardScan is the panic-containment boundary of the enumeration engines: a
// panic escaping fn — an injected fault or an organic bug in the cost model —
// becomes an ErrInternal error instead of killing the process (which, on the
// parallel path, a worker-goroutine panic otherwise would; net/http's own
// recover only shields the request goroutine).
func guardScan(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r)
		}
	}()
	fn()
	return nil
}

// cancelCheck polls a context's Err at a coarse stride, so the hot
// enumeration loop pays one local counter increment per visit instead of a
// synchronized ctx.Err() call. It never calls Done: a context that reads
// its deadline from the clock (the service's) then arms no timer for the
// engine. Each goroutine owns its own cancelCheck (the counter is
// unsynchronized by design).
type cancelCheck struct {
	ctx context.Context
	n   uint32
	// mask is the poll stride minus one (a power of two minus one); the
	// zero value polls on every call.
	mask uint32
}

func newCancelCheck(ctx context.Context) *cancelCheck {
	return &cancelCheck{ctx: ctx, mask: 1023}
}

// stopped reports whether the scan's context has ended, consulting
// ctx.Err() once every mask+1 calls (1024 for the lattice scans).
func (c *cancelCheck) stopped() bool {
	c.n++
	if c.n&c.mask != 0 {
		return false
	}
	return c.ctx.Err() != nil
}

// enumBest accumulates one scan's running optimum and cost counters.
type enumBest struct {
	best    Result
	bestKey candKey
	found   bool
}

// improves reports whether a candidate with the given MA total and canonical
// key would replace the running optimum — the allocation-free pre-check the
// block fold uses before constructing a Dataflow for the rare improvement.
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

// merge folds another scan's accumulator into e: counters add, optima
// compete under the canonical tie-break.
func (e *enumBest) merge(o enumBest) {
	e.best.Evaluations += o.best.Evaluations
	if o.found {
		e.take(o.best.Dataflow, o.best.Access, o.bestKey)
	}
}

// blockScanner owns one goroutine's slice of a scan: a reused candidate
// block and the chunk-local optimum. Generation pushes candidates; a full
// block flushes through the batch kernel and folds into acc. The steady
// state allocates nothing per candidate — the block is capacity-stable.
type blockScanner struct {
	mm         op.MatMul
	bufferSize int64
	orders     []dataflow.Order
	kern       *cost.BatchEval
	stop       *cancelCheck
	acc        *enumBest
	blk        *cost.Block
}

func newBlockScanner(mm op.MatMul, bufferSize int64, orders []dataflow.Order, kern *cost.BatchEval, stop *cancelCheck, acc *enumBest) *blockScanner {
	return &blockScanner{
		mm: mm, bufferSize: bufferSize, orders: orders,
		kern: kern, stop: stop, acc: acc,
		blk: cost.NewBlock(scanBlockSize),
	}
}

// push appends one candidate, firing the per-visit fault-injection site the
// chaos tests schedule by visit ordinal, and flushes when the block fills.
// Callers run inside guardScan, which converts injected panics (and organic
// cost-model bugs surfacing in the batched flush) into ErrInternal.
func (s *blockScanner) push(oi, tm, tk, tl int, foot int64) {
	if err := faultinject.Active().Fire(SiteEval); err != nil {
		panic(err)
	}
	s.blk.Push(uint8(oi), int32(tm), int32(tk), int32(tl), foot)
	if s.blk.Full() {
		s.flush()
	}
}

// flush prices the buffered candidates through the kernel and folds them
// into the running optimum. A Dataflow is constructed only when a candidate
// actually improves the optimum, so the per-candidate path stays free of
// validation and allocation.
func (s *blockScanner) flush() {
	n := s.blk.Len()
	if n == 0 {
		return
	}
	s.kern.EvalBlock(s.blk)
	s.acc.best.Evaluations += int64(n)
	for i := 0; i < n; i++ {
		key := candKey{int(s.blk.OI[i]), int(s.blk.TM[i]), int(s.blk.TK[i]), int(s.blk.TL[i])}
		if s.acc.improves(s.blk.Out[i].Total, key) {
			df := dataflow.Must(s.mm, s.orders[s.blk.OI[i]],
				dataflow.MustTiling(s.mm, key.tm, key.tk, key.tl))
			s.acc.take(df, s.blk.Out[i], key)
		}
	}
	s.blk.Reset()
}

// scanSpan enumerates the tilings gm[lo:hi] × gk × gl (each grid sorted
// ascending) against every loop order, pruning by footprint monotonicity:
// the innermost tl loop breaks on buffer overflow, and the tk and tm loops
// break once even the smallest remaining partner tiles overflow. When stop
// reports cancellation the scan abandons the chunk mid-lattice; the caller
// is responsible for discarding the partial accumulator via ctx.Err().
// Buffered candidates remain in the block across spans — the owner flushes
// once after its last span.
func (s *blockScanner) scanSpan(gm, gk, gl []int, lo, hi int) {
	minK, minL := gk[0], gl[0]
	for _, tm := range gm[lo:hi] {
		if tileFootprint(tm, minK, minL) > s.bufferSize {
			break
		}
		for _, tk := range gk {
			if tileFootprint(tm, tk, minL) > s.bufferSize {
				break
			}
			for _, tl := range gl {
				foot := tileFootprint(tm, tk, tl)
				if foot > s.bufferSize {
					break
				}
				if s.stop.stopped() {
					return
				}
				for oi := range s.orders {
					s.push(oi, tm, tk, tl, foot)
				}
			}
		}
	}
}

// enumState is the mutex-guarded shared state of one parallel scan; worker
// goroutines merge their chunk-local accumulators under mu (enforced by the
// lockedsimstate analyzer, backstopped by the -race CI run). err records the
// first contained worker panic; when set the scan's accumulator is invalid.
type enumState struct {
	mu  sync.Mutex
	acc enumBest
	err error
}

// scanParallel shards the tm grid across a worker pool and merges the
// chunk-local optima under the canonical tie-break, so the combined result
// is identical to a sequential scan regardless of scheduling. Each worker
// owns one blockScanner and dispatches whole blocks — the kernel, being
// immutable, is shared. On ctx cancellation dispatch stops, workers abandon
// their current chunk at the next poll, and the (partial) accumulator is
// returned for the caller to discard.
func scanParallel(ctx context.Context, mm op.MatMul, bufferSize int64, orders []dataflow.Order, kern *cost.BatchEval, gm, gk, gl []int, workers int) (enumBest, error) {
	type span struct{ lo, hi int }
	// Several chunks per worker load-balance the ragged pruning: small-tm
	// chunks admit far more feasible (tk, tl) partners than large-tm ones.
	chunk := len(gm) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	state := &enumState{}
	ch := make(chan span)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local enumBest
			scanner := newBlockScanner(mm, bufferSize, orders, kern, newCancelCheck(ctx), &local)
			var failed error
			for s := range ch {
				if failed != nil {
					continue // keep draining so the dispatcher never blocks
				}
				s := s
				failed = guardScan(func() {
					scanner.scanSpan(gm, gk, gl, s.lo, s.hi)
				})
			}
			if failed == nil {
				// Flush the residue block once after the last span; a panic
				// here (batched cost-model work) is contained like any other.
				failed = guardScan(scanner.flush)
			}
			state.mu.Lock()
			if failed != nil {
				// A panic aborted this worker mid-chunk; its local counters
				// and optimum are partial, so record the failure and drop them.
				if state.err == nil {
					state.err = failed
				}
			} else {
				state.acc.merge(local)
			}
			state.mu.Unlock()
		}()
	}
	done := ctx.Done()
dispatch:
	for lo := 0; lo < len(gm); lo += chunk {
		hi := lo + chunk
		if hi > len(gm) {
			hi = len(gm)
		}
		select {
		case ch <- span{lo, hi}:
		case <-done:
			break dispatch
		}
	}
	close(ch)
	wg.Wait()

	state.mu.Lock()
	defer state.mu.Unlock()
	return state.acc, state.err
}

// enumerate runs the pruned block scan over mm's lattice g, sequentially
// for workers == 1 and on a worker pool otherwise, and packages the optimum
// as a Result. The lattice is materialized only after the batch kernel
// accepts mm, so an extent beyond the kernel's int32 tile range fails at
// once instead of first allocating a full-range grid. workers ≤ 0 selects GOMAXPROCS, and larger requests are
// clamped to it: every worker allocates its own scan block up front, and
// the result is bit-identical for any worker count, so extra workers would
// only cost memory. Cancelling ctx stops the scan promptly and surfaces
// ctx.Err(); a Background context restores the historical non-cancellable
// behaviour at negligible cost.
func enumerate(ctx context.Context, mm op.MatMul, bufferSize int64, g Grid, workers int, method string) (Result, error) {
	if err := mm.Validate(); err != nil {
		return Result{}, err
	}
	if bufferSize < 3 {
		return Result{}, fmt.Errorf("search: buffer %d cannot hold 1×1 tiles: %w", bufferSize, errs.ErrBufferTooSmall)
	}
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		workers = procs
	}
	orders := dataflow.AllOrders()
	kern, err := cost.NewBatchEval(mm, orders)
	if err != nil {
		return Result{}, err
	}
	gm, gk, gl := gridValues(mm, g)
	var acc enumBest
	if workers == 1 {
		scanner := newBlockScanner(mm, bufferSize, orders, kern, newCancelCheck(ctx), &acc)
		if err := guardScan(func() {
			scanner.scanSpan(gm, gk, gl, 0, len(gm))
			scanner.flush()
		}); err != nil {
			return Result{}, err
		}
	} else {
		acc, err = scanParallel(ctx, mm, bufferSize, orders, kern, gm, gk, gl, workers)
		if err != nil {
			return Result{}, err
		}
	}
	// A canceled scan's accumulator is partial; discard it rather than
	// return a non-optimal "optimum".
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("search: %s scan canceled: %w", method, err)
	}
	if !acc.found {
		return Result{}, fmt.Errorf("search: no feasible dataflow for %v in buffer %d: %w", mm, bufferSize, errs.ErrInfeasible)
	}
	acc.best.Method = method
	return acc.best, nil
}
