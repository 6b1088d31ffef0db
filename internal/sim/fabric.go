package sim

import (
	"fmt"

	"fusecu/internal/dataflow"
	"fusecu/internal/tensor"
)

// Fabric is the four-CU FuseCU compute fabric of Fig. 7, with the resize
// interconnect that gangs CUs into square, narrow (2N×N) and wide (N×2N)
// logical arrays and the inter-CU connections used by the fused executions.
type Fabric struct {
	// N is the CU dimension (128 in the TPUv4i configuration; tests use
	// small values).
	N int
	// cus are the four physical compute units.
	cus [4]*CU
	// pipelineCycles tracks fabric-level pipelined execution time, which is
	// less than the sum of per-CU busy cycles when producer and consumer
	// CUs overlap (column fusion).
	pipelineCycles int64
	// traffic counts element movement across the fabric's memory boundary.
	traffic Traffic
}

// Traffic counts the elements the fabric moved across its memory boundary —
// the simulator's observed equivalent of the analytical models' MA, tested
// to agree exactly with internal/cost and internal/fusion for the
// corresponding dataflow.
type Traffic struct {
	// A, B are the producer operand loads; D the consumer weight loads
	// (fused executions only).
	A, B, D int64
	// Out counts output element write-backs (per visit, matching the
	// paper's accounting).
	Out int64
}

// Total sums all movement.
func (t Traffic) Total() int64 { return t.A + t.B + t.D + t.Out }

// Traffic returns the cumulative element movement.
func (f *Fabric) Traffic() Traffic { return f.traffic }

// ResetTraffic zeroes the movement counters.
func (f *Fabric) ResetTraffic() { f.traffic = Traffic{} }

// NewFabric builds a fabric of four N×N compute units.
func NewFabric(n int) (*Fabric, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: invalid CU dimension %d", n)
	}
	f := &Fabric{N: n}
	for i := range f.cus {
		cu, err := NewCU(n, n)
		if err != nil {
			return nil, err
		}
		f.cus[i] = cu
	}
	return f, nil
}

// CU returns physical compute unit i (0–3).
func (f *Fabric) CU(i int) *CU { return f.cus[i] }

// Cycles returns the fabric's pipelined execution cycle count.
func (f *Fabric) Cycles() int64 { return f.pipelineCycles }

// BusyCycles returns the sum of per-CU busy cycles (≥ Cycles when fused
// executions overlap CUs).
func (f *Fabric) BusyCycles() int64 {
	var t int64
	for _, cu := range f.cus {
		t += cu.Cycles()
	}
	return t
}

// MatMul executes C = A×B on a single CU with the requested stationary,
// tiling as needed. It exercises the XS PE's three datapaths.
func (f *Fabric) MatMul(a, b *tensor.Matrix, st dataflow.StationaryKind) (*tensor.Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("sim: matmul shape mismatch %d×%d by %d×%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	cu := f.cus[0]
	before := cu.Cycles()
	var (
		out *tensor.Matrix
		err error
	)
	switch st {
	case dataflow.WS:
		out, err = f.matMulWS(cu, a, b)
	case dataflow.IS:
		out, err = f.matMulIS(cu, a, b)
	case dataflow.OS:
		out, err = f.matMulOS(cu, a, b)
	default:
		return nil, fmt.Errorf("sim: unknown stationary %v", st)
	}
	if err != nil {
		return nil, err
	}
	f.pipelineCycles += cu.Cycles() - before
	return out, nil
}

// matMulWS keeps B blocks stationary and streams A.
func (f *Fabric) matMulWS(cu *CU, a, b *tensor.Matrix) (*tensor.Matrix, error) {
	out := tensor.New(a.Rows, b.Cols)
	for k0 := 0; k0 < b.Rows; k0 += cu.Rows {
		k1 := minInt(k0+cu.Rows, b.Rows)
		for l0 := 0; l0 < b.Cols; l0 += cu.Cols {
			l1 := minInt(l0+cu.Cols, b.Cols)
			if err := cu.LoadStationary(b.Sub(k0, k1, l0, l1)); err != nil {
				return nil, err
			}
			f.traffic.B += int64(k1-k0) * int64(l1-l0)
			part, err := cu.PassDown(a.Sub(0, a.Rows, k0, k1))
			if err != nil {
				return nil, err
			}
			f.traffic.A += int64(a.Rows) * int64(k1-k0)
			f.traffic.Out += int64(part.Rows) * int64(l1-l0)
			for i := 0; i < part.Rows; i++ {
				for j := 0; j < l1-l0; j++ {
					out.Add(i, l0+j, part.At(i, j))
				}
			}
		}
	}
	return out, nil
}

// matMulIS keeps A blocks stationary and streams B.
func (f *Fabric) matMulIS(cu *CU, a, b *tensor.Matrix) (*tensor.Matrix, error) {
	out := tensor.New(a.Rows, b.Cols)
	for m0 := 0; m0 < a.Rows; m0 += cu.Rows {
		m1 := minInt(m0+cu.Rows, a.Rows)
		for k0 := 0; k0 < a.Cols; k0 += cu.Cols {
			k1 := minInt(k0+cu.Cols, a.Cols)
			if err := cu.LoadStationary(a.Sub(m0, m1, k0, k1)); err != nil {
				return nil, err
			}
			f.traffic.A += int64(m1-m0) * int64(k1-k0)
			part, err := cu.PassRight(b.Sub(k0, k1, 0, b.Cols), false)
			if err != nil {
				return nil, err
			}
			f.traffic.B += int64(k1-k0) * int64(b.Cols)
			f.traffic.Out += int64(m1-m0) * int64(b.Cols)
			for i := 0; i < m1-m0; i++ {
				for j := 0; j < b.Cols; j++ {
					out.Add(m0+i, j, part.At(i, j))
				}
			}
		}
	}
	return out, nil
}

// matMulOS accumulates C tiles in the PE accumulators.
func (f *Fabric) matMulOS(cu *CU, a, b *tensor.Matrix) (*tensor.Matrix, error) {
	out := tensor.New(a.Rows, b.Cols)
	for m0 := 0; m0 < a.Rows; m0 += cu.Rows {
		m1 := minInt(m0+cu.Rows, a.Rows)
		// The A row-block is fetched once per m iteration and re-streamed
		// from the stream buffer across the inner l loop.
		f.traffic.A += int64(m1-m0) * int64(a.Cols)
		for l0 := 0; l0 < b.Cols; l0 += cu.Cols {
			l1 := minInt(l0+cu.Cols, b.Cols)
			cu.ResetAccumulators()
			if err := cu.PassAccumulate(a.Sub(m0, m1, 0, a.Cols), b.Sub(0, b.Rows, l0, l1)); err != nil {
				return nil, err
			}
			f.traffic.B += int64(b.Rows) * int64(l1-l0)
			tile, err := cu.Accumulators(m1-m0, l1-l0)
			if err != nil {
				return nil, err
			}
			f.traffic.Out += int64(m1-m0) * int64(l1-l0)
			out.SetSub(m0, l0, tile)
		}
	}
	return out, nil
}

// TileFused executes E = (A×B)×D with tile fusion (Fig. 5a): each C tile is
// produced output-stationary in the accumulators and immediately consumed
// input-stationary through the PassRight MUX path — C never leaves the
// array. An optional elementwise function applies to each C element in the
// array's activation path (the softmax/quantize unit) before consumption.
func (f *Fabric) TileFused(a, b, d *tensor.Matrix, elem func(float64) float64) (*tensor.Matrix, error) {
	if a.Cols != b.Rows || b.Cols != d.Rows {
		return nil, fmt.Errorf("sim: fused shape mismatch (%d×%d)(%d×%d)(%d×%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, d.Rows, d.Cols)
	}
	cu := f.cus[0]
	before := cu.Cycles()
	out := tensor.New(a.Rows, d.Cols)
	for m0 := 0; m0 < a.Rows; m0 += cu.Rows {
		m1 := minInt(m0+cu.Rows, a.Rows)
		// A row-block fetched once per m iteration (stream-buffer reuse).
		f.traffic.A += int64(m1-m0) * int64(a.Cols)
		for l0 := 0; l0 < b.Cols; l0 += cu.Cols {
			l1 := minInt(l0+cu.Cols, b.Cols)
			cu.ResetAccumulators()
			if err := cu.PassAccumulate(a.Sub(m0, m1, 0, a.Cols), b.Sub(0, b.Rows, l0, l1)); err != nil {
				return nil, err
			}
			f.traffic.B += int64(b.Rows) * int64(l1-l0)
			if elem != nil {
				cu.applyElement(elem)
			}
			part, err := cu.PassRight(d.Sub(l0, l1, 0, d.Cols), true)
			if err != nil {
				return nil, err
			}
			f.traffic.D += int64(l1-l0) * int64(d.Cols)
			f.traffic.Out += int64(m1-m0) * int64(d.Cols)
			for i := 0; i < m1-m0; i++ {
				for j := 0; j < d.Cols; j++ {
					out.Add(m0+i, j, part.At(i, j))
				}
			}
		}
	}
	f.pipelineCycles += cu.Cycles() - before
	return out, nil
}

// applyElement applies fn to every accumulator — the in-array elementwise
// unit sitting between the produce and consume phases.
func (cu *CU) applyElement(fn func(float64) float64) {
	for i := range cu.acc {
		for j := range cu.acc[i] {
			cu.acc[i][j] = fn(cu.acc[i][j])
		}
	}
	cu.cycles++
}

// ColumnFused executes E = (A×B)×D with column fusion (Fig. 5b): an IS
// producer CU holds an A row-block and streams C columns over the Fig. 7
// interconnect into an OS consumer CU holding the E row-block, one column
// of C per step. Producer and consumer overlap in time; the fabric counts
// the pipelined cycles (max of the two passes plus the interconnect
// offset), while each CU's own counter records its busy time.
//
// Shape requirements mirror the column-fusion dataflow: K = A.Cols must fit
// one CU's width (untiled reduction, up to N; use narrow ganging for 2N)
// and N = D.Cols must fit the consumer's width per pass.
func (f *Fabric) ColumnFused(a, b, d *tensor.Matrix, elem func(float64) float64) (*tensor.Matrix, error) {
	if a.Cols != b.Rows || b.Cols != d.Rows {
		return nil, fmt.Errorf("sim: fused shape mismatch (%d×%d)(%d×%d)(%d×%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, d.Rows, d.Cols)
	}
	prod, cons := f.cus[0], f.cus[2]
	if a.Cols > prod.Cols {
		return nil, fmt.Errorf("sim: column fusion needs K=%d ≤ CU width %d (gang CUs for up to 2N)", a.Cols, prod.Cols)
	}
	out := tensor.New(a.Rows, d.Cols)
	for m0 := 0; m0 < a.Rows; m0 += prod.Rows {
		m1 := minInt(m0+prod.Rows, a.Rows)
		pBefore, cBefore := prod.Cycles(), cons.Cycles()
		if err := prod.LoadStationary(a.Sub(m0, m1, 0, a.Cols)); err != nil {
			return nil, err
		}
		f.traffic.A += int64(m1-m0) * int64(a.Cols)
		// Producer: C row-block = A_block × B, streamed column by column.
		cBlock, err := prod.PassRight(b, false)
		if err != nil {
			return nil, err
		}
		f.traffic.B += int64(b.Rows) * int64(b.Cols)
		cBlock = cBlock.Sub(0, m1-m0, 0, b.Cols)
		if elem != nil {
			for i := range cBlock.Data {
				cBlock.Data[i] = elem(cBlock.Data[i])
			}
		}
		for n0 := 0; n0 < d.Cols; n0 += cons.Cols {
			n1 := minInt(n0+cons.Cols, d.Cols)
			cons.ResetAccumulators()
			if err := cons.PassAccumulate(cBlock, d.Sub(0, d.Rows, n0, n1)); err != nil {
				return nil, err
			}
			f.traffic.D += int64(d.Rows) * int64(n1-n0)
			tile, err := cons.Accumulators(m1-m0, n1-n0)
			if err != nil {
				return nil, err
			}
			f.traffic.Out += int64(m1-m0) * int64(n1-n0)
			out.SetSub(m0, n0, tile)
		}
		// Pipelined time: the halves overlap column by column; the slower
		// side plus the one-register interconnect hop bounds the block.
		pd, cd := prod.Cycles()-pBefore, cons.Cycles()-cBefore
		f.pipelineCycles += maxInt64(pd, cd) + 1
	}
	return out, nil
}

// GangedCU returns a logical CU of the requested shape built from whole
// physical CUs via the resize interconnect (Fig. 7c–e): N×N, 2N×N (narrow),
// N×2N (wide) or 2N×2N. The logical CU has its own registers; its cycles
// are added to the fabric's pipeline count by the caller's passes.
func (f *Fabric) GangedCU(rows, cols int) (*CU, error) {
	n := f.N
	ok := (rows == n && cols == n) || (rows == 2*n && cols == n) ||
		(rows == n && cols == 2*n) || (rows == 2*n && cols == 2*n)
	if !ok {
		return nil, fmt.Errorf("sim: %d×%d is not a square/narrow/wide ganging of %d×%d CUs", rows, cols, n, n)
	}
	return NewCU(rows, cols)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
