// Package fusecu is the public API of the FuseCU reproduction: principle-
// based dataflow optimization for communication lower bounds in operator-
// fused tensor accelerators (Xu et al., DAC 2025).
//
// The package re-exports the library's primary entry points:
//
//   - Optimize applies Principles 1–3 to produce the memory-access-optimal
//     tiling and scheduling for one matrix multiplication, one-shot.
//   - PlanChain adds Principle 4: it decides which producer/consumer pairs
//     of a chain to fuse and returns the fused dataflow plan.
//   - Platforms and EvaluateWorkload reproduce the paper's cross-platform
//     evaluation (TPUv4i, Gemmini, Planaria, UnfCU, FuseCU).
//   - NewFabric exposes the cycle-stepped functional simulator of the
//     FuseCU compute fabric (XS PEs, tile fusion, column fusion).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package fusecu

import (
	"context"

	"fusecu/internal/arch"
	"fusecu/internal/core"
	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/fusion"
	"fusecu/internal/model"
	"fusecu/internal/op"
	"fusecu/internal/search"
	"fusecu/internal/sim"
	"fusecu/internal/tensor"
)

// Error sentinels. Every error the library returns wraps exactly one of
// these, so callers classify failures with errors.Is regardless of which
// subsystem produced them.
var (
	// ErrInvalidOperator: an operator has non-positive dimensions.
	ErrInvalidOperator = errs.ErrInvalidOperator
	// ErrInvalidChain: a chain is empty or its shapes do not compose.
	ErrInvalidChain = errs.ErrInvalidChain
	// ErrInvalidDataflow: a tiling or loop order is malformed.
	ErrInvalidDataflow = errs.ErrInvalidDataflow
	// ErrBufferTooSmall: the buffer cannot hold even 1×1 tiles.
	ErrBufferTooSmall = errs.ErrBufferTooSmall
	// ErrInfeasible: no dataflow satisfies the constraints.
	ErrInfeasible = errs.ErrInfeasible
	// ErrUnknownPlatform: a platform name is not in Table III.
	ErrUnknownPlatform = errs.ErrUnknownPlatform
	// ErrUnknownModel: a model name is not in Table II.
	ErrUnknownModel = errs.ErrUnknownModel
)

// Operator and workload types.
type (
	// MatMul is one matrix multiplication A[M,K] × B[K,L] = C[M,L].
	MatMul = op.MatMul
	// Chain is a producer→consumer sequence of MatMuls.
	Chain = op.Chain
	// ModelConfig is a transformer's layer hyper-parameters (Table II).
	ModelConfig = model.Config
	// Workload is a built transformer layer's operator graph.
	Workload = model.Workload
)

// Dataflow types.
type (
	// Dataflow is an intra-operator tiling + scheduling decision.
	Dataflow = dataflow.Dataflow
	// Tiling holds per-dimension buffer tile sizes.
	Tiling = dataflow.Tiling
	// NRAClass is the Single-/Two-/Three-NRA taxonomy.
	NRAClass = dataflow.NRAClass
	// FusedPair is a producer/consumer pair sharing an intermediate.
	FusedPair = fusion.Pair
	// FusedDataflow is a fused tiling under one Fig. 4 pattern.
	FusedDataflow = fusion.FusedDataflow
)

// Optimization results.
type (
	// Result is the outcome of principle-based intra-operator optimization.
	Result = core.Result
	// ChainPlan is the outcome of chain-level (Principle 4) optimization.
	ChainPlan = core.ChainPlan
	// FusionDecision is one pair's Principle 4 analysis.
	FusionDecision = core.FusionDecision
	// Regime classifies buffer size against the operator (§III-A4).
	Regime = core.Regime
	// SearchResult is the DAT-style search baseline's outcome.
	SearchResult = search.Result
)

// Platform evaluation.
type (
	// Platform is one of the five evaluated architectures.
	Platform = arch.Platform
	// PlatformResult is a platform's evaluation on one workload.
	PlatformResult = arch.Result
)

// Simulation.
type (
	// Fabric is the cycle-stepped FuseCU compute fabric simulator.
	Fabric = sim.Fabric
	// Matrix is the dense matrix type the simulator operates on.
	Matrix = tensor.Matrix
)

// NRA classes.
const (
	SingleNRA = dataflow.SingleNRA
	TwoNRA    = dataflow.TwoNRA
	ThreeNRA  = dataflow.ThreeNRA
)

// Buffer regimes.
const (
	RegimeTiny   = core.RegimeTiny
	RegimeSmall  = core.RegimeSmall
	RegimeMedium = core.RegimeMedium
	RegimeLarge  = core.RegimeLarge
)

// Optimize applies Principles 1–3 to mm under a buffer of bufferSize
// elements and returns the communication-optimal dataflow, one-shot.
func Optimize(mm MatMul, bufferSize int64) (Result, error) {
	return core.Optimize(mm, bufferSize)
}

// Classify returns the buffer regime of bufferSize for mm.
func Classify(mm MatMul, bufferSize int64) Regime {
	return core.Classify(mm, bufferSize)
}

// NewChain builds and validates a producer→consumer chain.
func NewChain(name string, ops ...MatMul) (*Chain, error) {
	return op.NewChain(name, ops...)
}

// PlanChain applies Principles 1–4 to a chain: intra-operator optima plus
// profitable fusion pairing.
func PlanChain(c *Chain, bufferSize int64) (ChainPlan, error) {
	return core.PlanChain(c, bufferSize)
}

// DecideFusion applies Principle 4 to one producer/consumer pair.
func DecideFusion(pair FusedPair, bufferSize int64) (FusionDecision, error) {
	return core.DecideFusion(pair, bufferSize)
}

// NewFusedPair validates a producer/consumer pair.
func NewFusedPair(first, second MatMul) (FusedPair, error) {
	return fusion.NewPair(first, second)
}

// SearchOptimize runs the DAT-style search baseline over the same dataflow
// space (the coarse lattice's exact optimum polished by the GA on small
// lattices, the GA alone otherwise).
func SearchOptimize(mm MatMul, bufferSize int64, seed int64) (SearchResult, error) {
	return search.Optimize(mm, bufferSize, search.GeneticOptions{Seed: seed})
}

// SearchOptimizeCtx is SearchOptimize with cooperative cancellation: the
// search stops promptly when ctx is done and returns ctx's error. workers is
// accepted and ignored: the search runs on the calling goroutine, and the
// result is bit-identical to SearchOptimize.
func SearchOptimizeCtx(ctx context.Context, mm MatMul, bufferSize int64, seed int64, workers int) (SearchResult, error) {
	return search.OptimizeCtx(ctx, mm, bufferSize, search.GeneticOptions{Seed: seed})
}

// Platforms returns the five evaluation platforms in the paper's order.
func Platforms() []Platform { return arch.All() }

// PlatformByName looks a platform up by its Table III name.
func PlatformByName(name string) (Platform, error) { return arch.ByName(name) }

// Models returns the seven Table II transformer configurations.
func Models() []ModelConfig { return model.TableII() }

// ModelByName looks a Table II model up by name.
func ModelByName(name string) (ModelConfig, error) { return model.ByName(name) }

// LLaMA2WithSeq returns the LLaMA2 configuration at a sequence length, the
// Fig. 11 sweep knob.
func LLaMA2WithSeq(seq int) ModelConfig { return model.LLaMA2WithSeq(seq) }

// NewFabric builds a four-CU FuseCU fabric simulator with N×N compute
// units.
func NewFabric(n int) (*Fabric, error) { return sim.NewFabric(n) }

// NewMatrix allocates a zeroed rows×cols matrix for the simulator.
func NewMatrix(rows, cols int) *Matrix { return tensor.New(rows, cols) }

// MatMulReference computes A×B with the naive reference used to validate
// every simulated mapping.
func MatMulReference(a, b *Matrix) (*Matrix, error) { return tensor.MatMul(a, b) }
