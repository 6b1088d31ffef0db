// Package op defines the tensor-operator intermediate representation: matrix
// multiplications, elementwise operators, and producer/consumer chains of
// them. All dataflow optimization in this repository operates on these
// shape-level descriptions; element data only appears in the functional
// simulator's oracle checks.
package op

import (
	"fmt"
	"math"

	"fusecu/internal/errs"
	"fusecu/internal/invariant"
)

// MatMul describes one matrix multiplication A[M,K] × B[K,L] = C[M,L].
// Following the paper, dimension M indexes rows of A and C, K is the
// reduction dimension shared by A and B, and L indexes columns of B and C.
type MatMul struct {
	Name    string
	M, K, L int
}

// Validate reports an error when any dimension is non-positive, or when
// 3·M·K·L overflows int64. No tiling moves more than M·K·L elements of any
// one tensor, so the bound guarantees the operator's memory-access totals
// fit. Sums over several operators are bounded by ValidateAll.
func (m MatMul) Validate() error {
	if m.M <= 0 || m.K <= 0 || m.L <= 0 {
		return fmt.Errorf("op: %s has non-positive dims M=%d K=%d L=%d: %w", m.label(), m.M, m.K, m.L, errs.ErrInvalidOperator)
	}
	// Each overflow test runs only once the products it builds on are known
	// to fit.
	if invariant.MulOverflows(int64(m.M), int64(m.K)) ||
		invariant.MulOverflows(m.SizeA(), int64(m.L)) ||
		invariant.MulOverflows(3, m.MACs()) {
		return fmt.Errorf("op: %s is too large: 3·M·K·L overflows int64 (M=%d K=%d L=%d): %w", m.label(), m.M, m.K, m.L, errs.ErrInvalidOperator)
	}
	return nil
}

// ValidateAll validates every operator and reports an error when the
// operators' summed 3·M·K·L overflows int64. A fused pair moves no more than
// its two operators' bounds, so the check guarantees that every memory-access
// total summed over a plan of these operators fits.
func ValidateAll(ops ...MatMul) error {
	var sum int64
	for _, o := range ops {
		if err := o.Validate(); err != nil {
			return err
		}
		b := invariant.CheckedMul(3, o.MACs())
		if b > math.MaxInt64-sum {
			return fmt.Errorf("op: %d operators are too large together: their summed 3·M·K·L overflows int64: %w", len(ops), errs.ErrInvalidOperator)
		}
		sum += b
	}
	return nil
}

func (m MatMul) label() string {
	if m.Name == "" {
		return "matmul"
	}
	return m.Name
}

// SizeA returns the element count of input A (M×K).
func (m MatMul) SizeA() int64 { return invariant.CheckedMul(int64(m.M), int64(m.K)) }

// SizeB returns the element count of input B (K×L).
func (m MatMul) SizeB() int64 { return invariant.CheckedMul(int64(m.K), int64(m.L)) }

// SizeC returns the element count of output C (M×L).
func (m MatMul) SizeC() int64 { return invariant.CheckedMul(int64(m.M), int64(m.L)) }

// MACs returns the multiply-accumulate count M·K·L.
func (m MatMul) MACs() int64 { return invariant.CheckedMul3(int64(m.M), int64(m.K), int64(m.L)) }

// MinDim returns the smallest of the three loop dimensions (the paper's
// D_min, which positions the buffer-regime boundaries).
func (m MatMul) MinDim() int {
	d := m.M
	if m.K < d {
		d = m.K
	}
	if m.L < d {
		d = m.L
	}
	return d
}

// MinTensor returns the element count of the smallest of A, B, C (the paper's
// Tensor_min, the Three-NRA residency threshold).
func (m MatMul) MinTensor() int64 {
	s := m.SizeA()
	if b := m.SizeB(); b < s {
		s = b
	}
	if c := m.SizeC(); c < s {
		s = c
	}
	return s
}

// IdealMA is the communication lower bound with an unbounded buffer: every
// tensor moves exactly once.
func (m MatMul) IdealMA() int64 { return m.SizeA() + m.SizeB() + m.SizeC() }

func (m MatMul) String() string {
	return fmt.Sprintf("%s[M=%d,K=%d,L=%d]", m.label(), m.M, m.K, m.L)
}

// Elementwise is a unary tensor operator (softmax, activation, quantization)
// applied to the intermediate between two chained MatMuls. Elementwise
// operators are fusion-transparent: they read and write the same shape and
// can always ride along with the surrounding matrix multiplications, exactly
// as the softmax unit does inside FuseCU.
type Elementwise struct {
	Name string
	// Rows, Cols give the operand shape, matching the producer's C tensor.
	Rows, Cols int
}

// Size returns the operand element count.
func (e Elementwise) Size() int64 { return invariant.CheckedMul(int64(e.Rows), int64(e.Cols)) }

func (e Elementwise) String() string {
	return fmt.Sprintf("%s[%d×%d]", e.Name, e.Rows, e.Cols)
}

// Chain is a linear producer→consumer sequence of MatMuls: the C output of
// Ops[i] is the A input of Ops[i+1]. Elementwise[i], when non-nil, applies to
// that intermediate. Chains are the unit over which operator fusion is
// decided (paper §III-B: apply Principle 4 to each connected pair).
type Chain struct {
	Name string
	Ops  []MatMul
	// Elementwise has len(Ops)-1 entries; entry i sits between Ops[i] and
	// Ops[i+1]. Entries may be the zero value for "no elementwise op".
	Elementwise []Elementwise
}

// ErrEmptyChain is returned when a chain has no operators. It wraps
// errs.ErrInvalidChain, so errors.Is classification sees both.
var ErrEmptyChain = fmt.Errorf("op: empty chain: %w", errs.ErrInvalidChain)

// NewChain builds a chain and validates shape compatibility between
// neighbours.
func NewChain(name string, ops ...MatMul) (*Chain, error) {
	c := &Chain{Name: name, Ops: ops, Elementwise: make([]Elementwise, maxInt(0, len(ops)-1))}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// WithElementwise attaches an elementwise operator to intermediate i
// (between Ops[i] and Ops[i+1]).
func (c *Chain) WithElementwise(i int, name string) (*Chain, error) {
	if i < 0 || i >= len(c.Ops)-1 {
		return nil, fmt.Errorf("op: elementwise index %d out of range for chain of %d ops: %w", i, len(c.Ops), errs.ErrInvalidChain)
	}
	c.Elementwise[i] = Elementwise{Name: name, Rows: c.Ops[i].M, Cols: c.Ops[i].L}
	return c, nil
}

// Validate checks every operator (together, with ValidateAll) and every
// producer/consumer shape match.
func (c *Chain) Validate() error {
	if len(c.Ops) == 0 {
		return ErrEmptyChain
	}
	if err := ValidateAll(c.Ops...); err != nil {
		return err
	}
	for i := 0; i+1 < len(c.Ops); i++ {
		p, q := c.Ops[i], c.Ops[i+1]
		if p.M != q.M || p.L != q.K {
			return fmt.Errorf("op: chain %q link %d: producer C is %d×%d but consumer A is %d×%d: %w",
				c.Name, i, p.M, p.L, q.M, q.K, errs.ErrInvalidChain)
		}
	}
	if len(c.Elementwise) != len(c.Ops)-1 {
		return fmt.Errorf("op: chain %q has %d elementwise slots, want %d: %w", c.Name, len(c.Elementwise), len(c.Ops)-1, errs.ErrInvalidChain)
	}
	for i, e := range c.Elementwise {
		if e.Name == "" {
			continue
		}
		if e.Rows != c.Ops[i].M || e.Cols != c.Ops[i].L {
			return fmt.Errorf("op: chain %q elementwise %d shape %d×%d does not match intermediate %d×%d: %w",
				c.Name, i, e.Rows, e.Cols, c.Ops[i].M, c.Ops[i].L, errs.ErrInvalidChain)
		}
	}
	return nil
}

// Len returns the number of MatMuls in the chain.
func (c *Chain) Len() int { return len(c.Ops) }

// MACs returns the total multiply-accumulate count of the chain.
func (c *Chain) MACs() int64 {
	var t int64
	for _, o := range c.Ops {
		t += o.MACs()
	}
	return t
}

// IntermediateSize returns the element count of the tensor between Ops[i] and
// Ops[i+1] — the traffic a fused dataflow eliminates.
func (c *Chain) IntermediateSize(i int) int64 {
	return c.Ops[i].SizeC()
}

// UnfusedIdealMA sums each operator's unbounded-buffer lower bound; chained
// intermediates are written by the producer and read back by the consumer.
func (c *Chain) UnfusedIdealMA() int64 {
	var t int64
	for _, o := range c.Ops {
		t += o.IdealMA()
	}
	return t
}

func (c *Chain) String() string {
	s := fmt.Sprintf("chain %q:", c.Name)
	for i, o := range c.Ops {
		s += " " + o.String()
		if i < len(c.Elementwise) && c.Elementwise[i].Name != "" {
			s += " → " + c.Elementwise[i].String()
		}
		if i+1 < len(c.Ops) {
			s += " →"
		}
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
