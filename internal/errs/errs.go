// Package errs defines the library's unified error taxonomy: the exported
// sentinels every fusecu package wraps its failures in, so callers — the
// public facade, the CLIs, and above all the fusecu-serve HTTP service —
// can classify failures with errors.Is instead of string-matching messages.
//
// Each sentinel names a *category* of failure, not a site: packages keep
// their descriptive, site-specific messages and attach the sentinel with
// fmt.Errorf("...: %w", ..., errs.ErrX). The service maps each category to
// one stable HTTP status code (see internal/service), which is the whole
// point: adding a new failure site never changes the wire contract.
//
// Taxonomy:
//
//   - ErrInvalidOperator — a malformed operator shape (non-positive dims),
//     or operators too large for their traffic to fit int64.
//   - ErrInvalidChain    — a chain whose operators do not connect, whose
//     elementwise slots mismatch, or that is empty; also covers
//     producer/consumer pairs that cannot fuse structurally.
//   - ErrInvalidDataflow — a tiling, loop order, or fused pattern violating
//     the §III validity constraints.
//   - ErrBufferTooSmall  — the buffer cannot hold even 1×1 tiles, so no
//     engine can produce any dataflow.
//   - ErrInfeasible      — the inputs are well-formed but no feasible
//     dataflow exists in the searched/constructed space for this buffer.
//   - ErrUnknownPlatform — a platform name outside Table III.
//   - ErrUnknownModel    — a model name outside Table II.
//   - ErrInternal        — an engine failed in a way valid inputs never
//     should: a panic contained at an engine's boundary — the walk, a
//     table build, the GA's generation loop — (organic or fault-injected). The inputs may be fine; retrying or
//     falling back to the principle optimizer is legitimate.
package errs

import "errors"

// Sentinel errors. See the package comment for the taxonomy.
var (
	ErrInvalidOperator = errors.New("invalid operator")
	ErrInvalidChain    = errors.New("invalid chain")
	ErrInvalidDataflow = errors.New("invalid dataflow")
	ErrBufferTooSmall  = errors.New("buffer too small")
	ErrInfeasible      = errors.New("no feasible dataflow")
	ErrUnknownPlatform = errors.New("unknown platform")
	ErrUnknownModel    = errors.New("unknown model")
	ErrInternal        = errors.New("internal engine failure")
)
