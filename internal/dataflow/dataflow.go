// Package dataflow defines the intermediate representation for intra-operator
// dataflow on a matrix multiplication: tiling (tile sizes per loop dimension)
// and scheduling (tile-loop order, equivalently the stationary choice). The
// analytical cost model (internal/cost), the trace oracle (internal/trace),
// the principle-based optimizer (internal/core) and the search baseline
// (internal/search) all share this vocabulary.
package dataflow

import (
	"fmt"

	"fusecu/internal/invariant"
	"fusecu/internal/op"
)

// Dim identifies one of the three matmul loop dimensions.
type Dim uint8

// The three loop dimensions of A[M,K] × B[K,L] = C[M,L].
const (
	DimM Dim = iota
	DimK
	DimL
	numDims
)

func (d Dim) String() string {
	switch d {
	case DimM:
		return "M"
	case DimK:
		return "K"
	case DimL:
		return "L"
	}
	return fmt.Sprintf("Dim(%d)", uint8(d))
}

// Extent returns dimension d's size in mm.
func (d Dim) Extent(mm op.MatMul) int {
	switch d {
	case DimM:
		return mm.M
	case DimK:
		return mm.K
	case DimL:
		return mm.L
	}
	panic("dataflow: invalid Dim")
}

// Tensor identifies one of the three matmul operands.
type Tensor uint8

// The three operands. A and B are inputs, C is the accumulated output.
const (
	TensorA Tensor = iota
	TensorB
	TensorC
	numTensors
)

func (t Tensor) String() string {
	switch t {
	case TensorA:
		return "A"
	case TensorB:
		return "B"
	case TensorC:
		return "C"
	}
	return fmt.Sprintf("Tensor(%d)", uint8(t))
}

// Dims returns the two loop dimensions indexing tensor t.
func (t Tensor) Dims() [2]Dim {
	switch t {
	case TensorA:
		return [2]Dim{DimM, DimK}
	case TensorB:
		return [2]Dim{DimK, DimL}
	case TensorC:
		return [2]Dim{DimM, DimL}
	}
	panic("dataflow: invalid Tensor")
}

// HasDim reports whether dimension d indexes tensor t.
func (t Tensor) HasDim(d Dim) bool {
	dd := t.Dims()
	return dd[0] == d || dd[1] == d
}

// Size returns tensor t's element count in mm.
func (t Tensor) Size(mm op.MatMul) int64 {
	switch t {
	case TensorA:
		return mm.SizeA()
	case TensorB:
		return mm.SizeB()
	case TensorC:
		return mm.SizeC()
	}
	panic("dataflow: invalid Tensor")
}

// TensorsWithDim returns the two tensors indexed by dimension d.
func TensorsWithDim(d Dim) [2]Tensor {
	switch d {
	case DimM:
		return [2]Tensor{TensorA, TensorC}
	case DimK:
		return [2]Tensor{TensorA, TensorB}
	case DimL:
		return [2]Tensor{TensorB, TensorC}
	}
	panic("dataflow: invalid Dim")
}

// TensorWithoutDim returns the single tensor not indexed by dimension d.
func TensorWithoutDim(d Dim) Tensor {
	switch d {
	case DimM:
		return TensorB
	case DimK:
		return TensorC
	case DimL:
		return TensorA
	}
	panic("dataflow: invalid Dim")
}

// Tensors lists all operands in canonical order.
func Tensors() [3]Tensor { return [3]Tensor{TensorA, TensorB, TensorC} }

// Dims lists all loop dimensions in canonical order.
func Dims() [3]Dim { return [3]Dim{DimM, DimK, DimL} }

// Tiling holds the buffer-level tile size for each loop dimension. A
// dimension with tile size equal to (or clamped to) its extent is "untiled"
// in the paper's vocabulary: the whole extent is resident and its tile loop
// disappears.
type Tiling struct {
	TM, TK, TL int
}

// Tile returns the tile size for dimension d.
func (t Tiling) Tile(d Dim) int {
	switch d {
	case DimM:
		return t.TM
	case DimK:
		return t.TK
	case DimL:
		return t.TL
	}
	panic("dataflow: invalid Dim")
}

// WithTile returns a copy of t with dimension d's tile set to v.
func (t Tiling) WithTile(d Dim, v int) Tiling {
	switch d {
	case DimM:
		t.TM = v
	case DimK:
		t.TK = v
	case DimL:
		t.TL = v
	default:
		panic("dataflow: invalid Dim")
	}
	return t
}

// Clamp limits every tile size to its dimension extent and to at least 1.
func (t Tiling) Clamp(mm op.MatMul) Tiling {
	clamp := func(v, hi int) int {
		if v < 1 {
			return 1
		}
		if v > hi {
			return hi
		}
		return v
	}
	return Tiling{TM: clamp(t.TM, mm.M), TK: clamp(t.TK, mm.K), TL: clamp(t.TL, mm.L)}
}

// Validate checks 1 ≤ T_D ≤ D for every dimension.
func (t Tiling) Validate(mm op.MatMul) error {
	for _, d := range Dims() {
		v, ext := t.Tile(d), d.Extent(mm)
		if v < 1 || v > ext {
			return fmt.Errorf("dataflow: tile %s=%d outside [1,%d]", d, v, ext)
		}
	}
	return nil
}

// Trips returns ceil(D / T_D) for dimension d.
func (t Tiling) Trips(d Dim, mm op.MatMul) int64 {
	ext, tile := int64(d.Extent(mm)), int64(t.Tile(d))
	invariant.Assert(tile >= 1, "tile %s=%d must be positive for trip count", d, tile)
	return (ext + tile - 1) / tile
}

// TensorTile returns the buffer footprint of tensor x's tile (product of its
// two tile sizes).
func (t Tiling) TensorTile(x Tensor) int64 {
	dd := x.Dims()
	return invariant.CheckedMul(int64(t.Tile(dd[0])), int64(t.Tile(dd[1])))
}

// Footprint returns the total buffer occupancy of the three tiles — the
// left-hand side of the paper's buffer constraints (Eq. 2 and Eq. 4).
func (t Tiling) Footprint() int64 {
	fp := t.TensorTile(TensorA) + t.TensorTile(TensorB) + t.TensorTile(TensorC)
	invariant.Assert(fp > 0, "footprint %d of %v wrapped or vanished", fp, t)
	return fp
}

// Untiled reports whether dimension d is fully resident under tiling t.
func (t Tiling) Untiled(d Dim, mm op.MatMul) bool {
	return t.Tile(d) >= d.Extent(mm)
}

func (t Tiling) String() string {
	return fmt.Sprintf("T_M=%d T_K=%d T_L=%d", t.TM, t.TK, t.TL)
}

// Order is a tile-loop permutation, outer to inner.
type Order [3]Dim

// Canonical loop orders. Naming follows the stationary they induce: the
// stationary tensor is the one not indexed by the innermost loop dimension.
var (
	// OrderOS keeps C stationary: M, L outer, reduction K innermost.
	OrderOS = Order{DimM, DimL, DimK}
	// OrderOSSwap is OS with M and L exchanged.
	OrderOSSwap = Order{DimL, DimM, DimK}
	// OrderWS keeps B stationary: K, L outer, M innermost.
	OrderWS = Order{DimK, DimL, DimM}
	// OrderWSSwap is WS with K and L exchanged.
	OrderWSSwap = Order{DimL, DimK, DimM}
	// OrderIS keeps A stationary: M, K outer, L innermost.
	OrderIS = Order{DimM, DimK, DimL}
	// OrderISSwap is IS with M and K exchanged.
	OrderISSwap = Order{DimK, DimM, DimL}
)

// AllOrders enumerates every permutation of the three tile loops.
func AllOrders() []Order {
	return []Order{OrderOS, OrderOSSwap, OrderWS, OrderWSSwap, OrderIS, OrderISSwap}
}

// Validate checks that o is a permutation of {M, K, L}.
func (o Order) Validate() error {
	var seen [numDims]bool
	for _, d := range o {
		if d >= numDims {
			return fmt.Errorf("dataflow: invalid dim %d in order", d)
		}
		if seen[d] {
			return fmt.Errorf("dataflow: duplicate dim %s in order %v", d, o)
		}
		seen[d] = true
	}
	return nil
}

// Innermost returns the innermost loop dimension.
func (o Order) Innermost() Dim { return o[2] }

// Position returns d's depth in the order (0 = outermost). It panics when d
// is absent, which Validate precludes.
func (o Order) Position(d Dim) int {
	for i, x := range o {
		if x == d {
			return i
		}
	}
	panic(fmt.Sprintf("dataflow: dim %s not in order %v", d, o))
}

// Stationary returns the tensor kept stationary across the innermost loop —
// the tensor not indexed by the innermost dimension.
func (o Order) Stationary() Tensor { return TensorWithoutDim(o.Innermost()) }

// String names the loop order outermost first, e.g. "M→L→K". The six
// valid orders come from a table built once, so naming a dataflow in a
// response formats nothing; an invalid order is formatted on each call.
func (o Order) String() string {
	if o[0] < numDims && o[1] < numDims && o[2] < numDims {
		if name := orderNames[o[0]][o[1]][o[2]]; name != "" {
			return name
		}
	}
	return o.format()
}

func (o Order) format() string {
	return fmt.Sprintf("%s→%s→%s", o[0], o[1], o[2])
}

// orderNames holds every valid order's String, indexed by its dims.
var orderNames = func() (names [numDims][numDims][numDims]string) {
	for _, o := range AllOrders() {
		names[o[0]][o[1]][o[2]] = o.format()
	}
	return names
}()

// StationaryKind names the classic stationary taxonomies for display.
type StationaryKind uint8

// Output-, weight- and input-stationary.
const (
	OS StationaryKind = iota
	WS
	IS
)

func (s StationaryKind) String() string {
	switch s {
	case OS:
		return "OS"
	case WS:
		return "WS"
	case IS:
		return "IS"
	}
	return fmt.Sprintf("StationaryKind(%d)", uint8(s))
}

// Kind maps the stationary tensor to its classic name: C→OS, B→WS, A→IS.
func (t Tensor) Kind() StationaryKind {
	switch t {
	case TensorC:
		return OS
	case TensorB:
		return WS
	case TensorA:
		return IS
	}
	panic("dataflow: invalid Tensor")
}

// KindTensor is the inverse of Tensor.Kind.
func (s StationaryKind) KindTensor() Tensor {
	switch s {
	case OS:
		return TensorC
	case WS:
		return TensorB
	case IS:
		return TensorA
	}
	panic("dataflow: invalid StationaryKind")
}

// NRAClass counts how many tensors achieve non-redundant access under a
// dataflow — the paper's Single-/Two-/Three-NRA taxonomy.
type NRAClass uint8

// NRA classes; NRAZero appears only for degenerate dataflow that spills
// partial sums and re-reads every operand.
const (
	NRAZero NRAClass = iota
	SingleNRA
	TwoNRA
	ThreeNRA
)

func (n NRAClass) String() string {
	switch n {
	case NRAZero:
		return "Zero-NRA"
	case SingleNRA:
		return "Single-NRA"
	case TwoNRA:
		return "Two-NRA"
	case ThreeNRA:
		return "Three-NRA"
	}
	return fmt.Sprintf("NRAClass(%d)", uint8(n))
}

// Dataflow is a complete intra-operator tiling + scheduling decision.
type Dataflow struct {
	Order  Order
	Tiling Tiling
}

// Validate checks the order and the tiling against mm.
func (df Dataflow) Validate(mm op.MatMul) error {
	if err := df.Order.Validate(); err != nil {
		return err
	}
	return df.Tiling.Validate(mm)
}

// FitsBuffer reports whether the tiling footprint fits in bufferSize
// elements.
func (df Dataflow) FitsBuffer(bufferSize int64) bool {
	return df.Tiling.Footprint() <= bufferSize
}

// UntiledDims lists dimensions held fully resident.
func (df Dataflow) UntiledDims(mm op.MatMul) []Dim {
	var out []Dim
	for _, d := range Dims() {
		if df.Tiling.Untiled(d, mm) {
			out = append(out, d)
		}
	}
	return out
}

func (df Dataflow) String() string {
	return fmt.Sprintf("order %s, %s, %s-stationary",
		df.Order, df.Tiling, df.Order.Stationary())
}
