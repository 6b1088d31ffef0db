// Package fusion implements inter-operator dataflow (paper §III-B): the
// fusable dataflow patterns of Fig. 4, the exact memory-access model of a
// fused producer/consumer pair of matrix multiplications, and the
// construction of principle-optimal fused dataflow for each NRA class.
//
// A fused pair executes A[M,K]×B[K,L] = C[M,L] and C[M,L]×D[L,N] = E[M,N]
// with the intermediate C never touching memory. The paper's fusability rule
// requires C to be accessed non-redundantly inside both operators, which
// admits three pattern families:
//
//   - PatternTileOSIS (Fig. 4a/b): the producer runs output-stationary and
//     the consumer input-stationary on the same tile-like C tile.
//   - PatternColumn (Fig. 4b/c): the K dimension is untiled; an A row-block
//     and an E row-block stay resident while column-like C tiles stream from
//     the producer half into the consumer half (the mapping FuseCU pipelines
//     across CUs).
//   - PatternResident (Fig. 4d/e): C (and E) are fully resident; every
//     remaining tensor moves exactly once — the fused communication lower
//     bound MK + KL + LN + MN.
//
// Each pattern's closed-form traffic is validated against a tile-trace
// oracle in this package's tests.
package fusion

import (
	"fmt"

	"fusecu/internal/dataflow"
	"fusecu/internal/errs"
	"fusecu/internal/op"
)

// Pair is a producer/consumer pair of matrix multiplications sharing the
// intermediate tensor C. Dimension names follow the paper's Fig. 4:
// A[M,K] × B[K,L] = C[M,L], then C[M,L] × D[L,N] = E[M,N].
type Pair struct {
	First, Second op.MatMul
}

// NewPair validates both operators together (op.ValidateAll) and their
// producer/consumer shape compatibility.
func NewPair(first, second op.MatMul) (Pair, error) {
	if err := op.ValidateAll(first, second); err != nil {
		return Pair{}, err
	}
	if first.M != second.M || first.L != second.K {
		return Pair{}, fmt.Errorf("fusion: producer C is %d×%d but consumer A is %d×%d: %w",
			first.M, first.L, second.M, second.K, errs.ErrInvalidChain)
	}
	return Pair{First: first, Second: second}, nil
}

// M, K, L, N accessors for the four fused loop dimensions.
func (p Pair) M() int { return p.First.M }

// K is the producer's reduction dimension.
func (p Pair) K() int { return p.First.K }

// L is the intermediate dimension: producer output columns, consumer
// reduction.
func (p Pair) L() int { return p.First.L }

// N is the consumer's output column dimension.
func (p Pair) N() int { return p.Second.L }

// IntermediateSize is the element count of C — the traffic fusion removes
// twice over (producer write + consumer read).
func (p Pair) IntermediateSize() int64 { return p.First.SizeC() }

// FusedIdealMA is the fused communication lower bound: every non-intermediate
// tensor moves exactly once.
func (p Pair) FusedIdealMA() int64 {
	return p.First.SizeA() + p.First.SizeB() + p.Second.SizeB() + p.Second.SizeC()
}

func (p Pair) String() string {
	return fmt.Sprintf("fused(%v ⨝ %v)", p.First, p.Second)
}

// Pattern identifies a fused dataflow family from Fig. 4.
type Pattern uint8

// The three implementable pattern families.
const (
	// PatternTileOSIS: OS producer feeding an IS consumer on a tile-like
	// intermediate (Fig. 4a and the OS–IS arm of 4b). Maps to tile fusion.
	PatternTileOSIS Pattern = iota
	// PatternColumn: K untiled, column-like intermediate streamed from
	// producer to consumer (Fig. 4b/c). Maps to column fusion.
	PatternColumn
	// PatternResident: intermediate (and consumer output) fully resident
	// (Fig. 4d/e); achieves the fused ideal.
	PatternResident
)

func (f Pattern) String() string {
	switch f {
	case PatternTileOSIS:
		return "tile-OS/IS"
	case PatternColumn:
		return "column"
	case PatternResident:
		return "resident"
	}
	return fmt.Sprintf("Pattern(%d)", uint8(f))
}

// Patterns lists the three families.
func Patterns() [3]Pattern {
	return [3]Pattern{PatternTileOSIS, PatternColumn, PatternResident}
}

// NRAClass returns the NRA class of the intra-operator dataflow each pattern
// fuses, per Fig. 4.
func (f Pattern) NRAClass() dataflow.NRAClass {
	switch f {
	case PatternTileOSIS:
		return dataflow.SingleNRA
	case PatternColumn:
		return dataflow.TwoNRA
	case PatternResident:
		return dataflow.ThreeNRA
	}
	panic("fusion: invalid Pattern")
}

// PatternForNRA maps an intra-operator NRA class to the fused pattern that
// preserves its tiling principles (Principle 4's "same NRA" requirement).
func PatternForNRA(n dataflow.NRAClass) (Pattern, bool) {
	switch n {
	case dataflow.SingleNRA:
		return PatternTileOSIS, true
	case dataflow.TwoNRA:
		return PatternColumn, true
	case dataflow.ThreeNRA:
		return PatternResident, true
	}
	return 0, false
}

// FusedDataflow is a concrete fused tiling under one pattern. Tile sizes
// cover the four loop dimensions; patterns ignore the tiles their structure
// pins (see Evaluate).
type FusedDataflow struct {
	Pattern        Pattern
	TM, TK, TL, TN int
}

func (fd FusedDataflow) String() string {
	return fmt.Sprintf("%s T_M=%d T_K=%d T_L=%d T_N=%d", fd.Pattern, fd.TM, fd.TK, fd.TL, fd.TN)
}

// Validate checks tile bounds against the pair and pattern-pinned dims.
func (fd FusedDataflow) Validate(p Pair) error {
	check := func(name string, v, hi int) error {
		if v < 1 || v > hi {
			return fmt.Errorf("fusion: tile %s=%d outside [1,%d]: %w", name, v, hi, errs.ErrInvalidDataflow)
		}
		return nil
	}
	if err := check("M", fd.TM, p.M()); err != nil {
		return err
	}
	if err := check("K", fd.TK, p.K()); err != nil {
		return err
	}
	if err := check("L", fd.TL, p.L()); err != nil {
		return err
	}
	if err := check("N", fd.TN, p.N()); err != nil {
		return err
	}
	switch fd.Pattern {
	case PatternColumn:
		if fd.TK != p.K() {
			return fmt.Errorf("fusion: column pattern requires K untiled (T_K=%d, K=%d): %w", fd.TK, p.K(), errs.ErrInvalidDataflow)
		}
		if fd.TN != p.N() {
			return fmt.Errorf("fusion: column pattern keeps the E row-block resident (T_N=%d, N=%d): %w", fd.TN, p.N(), errs.ErrInvalidDataflow)
		}
	case PatternResident:
		if fd.TM != p.M() || fd.TL != p.L() {
			return fmt.Errorf("fusion: resident pattern requires C fully resident (T_M=%d/%d, T_L=%d/%d): %w",
				fd.TM, p.M(), fd.TL, p.L(), errs.ErrInvalidDataflow)
		}
		if fd.TN != p.N() {
			return fmt.Errorf("fusion: resident pattern keeps E resident (T_N=%d, N=%d): %w", fd.TN, p.N(), errs.ErrInvalidDataflow)
		}
	}
	return nil
}

// Access reports the fused pair's traffic. The intermediate C contributes
// zero by construction.
type Access struct {
	// A, B are the producer inputs; D is the consumer's weight input; E the
	// consumer output (per-visit accounting, as in internal/cost).
	A, B, D, E int64
	// EReads is the physical partial-sum read-back of E, informational.
	EReads int64
	// Total = A + B + D + E.
	Total int64
	// Footprint is the peak buffer occupancy of the pattern.
	Footprint int64
}

// Evaluate computes the exact traffic of fd on pair p.
//
// Loop structures per pattern (all keep C entirely on-chip):
//
//	TileOSIS:  for m / for l { for k: C[m,l] += A[m,k]·B[k,l] ; for n: E[m,n] += C[m,l]·D[l,n] }
//	Column:    for m { A[m,:] resident; E[m,:] resident;
//	                   for l { for k: C[m,l] += A·B[k,l]; for n: E += C[m,l]·D[l,n] } }
//	Resident:  C, E resident; phase 1 streams A, B once; phase 2 streams D once.
func Evaluate(p Pair, fd FusedDataflow) (Access, error) {
	if err := fd.Validate(p); err != nil {
		return Access{}, err
	}
	M, K, L, N := int64(p.M()), int64(p.K()), int64(p.L()), int64(p.N())
	tm, tk, tl, tn := int64(fd.TM), int64(fd.TK), int64(fd.TL), int64(fd.TN)
	nM := ceilDiv(M, tm)
	nK := ceilDiv(K, tk)
	nL := ceilDiv(L, tl)
	nN := ceilDiv(N, tn)

	var a Access
	switch fd.Pattern {
	case PatternTileOSIS:
		// A tile (m,k) survives the l loop when the k loop never advances;
		// B and D survive a whole m iteration when everything inner is a
		// single tile; E survives the l loop when the n loop never advances.
		a.A = M * K * boolFactor(nL > 1 && nK > 1, nL)
		a.B = K * L * boolFactor(nM > 1 && (nK > 1 || nL > 1), nM)
		a.D = L * N * boolFactor(nM > 1 && (nL > 1 || nN > 1), nM)
		eF := boolFactor(nL > 1 && nN > 1, nL)
		a.E = M * N * eF
		a.EReads = M * N * (eF - 1)
		a.Footprint = tm*tk + tk*tl + tm*tl + tl*tn + tm*tn
	case PatternColumn:
		a.A = M * K
		a.B = K * L * boolFactor(nM > 1 && nL > 1, nM)
		a.D = L * N * boolFactor(nM > 1 && nL > 1, nM)
		a.E = M * N
		a.Footprint = tm*K + K*tl + tm*tl + tl*tn + tm*N
	case PatternResident:
		a.A = M * K
		a.B = K * L
		a.D = L * N
		a.E = M * N
		// Peak of the produce phase (C + B row-block + A tile) and the
		// consume phase (C + E + D tile).
		produce := M*L + tk*L + tm*tk
		consume := M*L + M*N + tl*tn
		a.Footprint = maxInt64(produce, consume)
	default:
		return Access{}, fmt.Errorf("fusion: unknown pattern %v: %w", fd.Pattern, errs.ErrInvalidDataflow)
	}
	a.Total = a.A + a.B + a.D + a.E
	return a, nil
}

// Candidate is a constructed fused dataflow with its cost.
type Candidate struct {
	Dataflow FusedDataflow
	Access   Access
	Note     string
}

// ConstructTileOSIS builds the principle-optimal tile-fusion dataflow:
// T_K = T_N = 1 and the C tile dimensions maximized, balancing the weighted
// redundancy n_L·(MK + MN) + n_M·(KL + LN) exactly under the footprint
// constraint.
func ConstructTileOSIS(p Pair, bufferSize int64) (Candidate, bool) {
	return ConstructTileOSISAligned(p, bufferSize, 1)
}

// ConstructTileOSISAligned is ConstructTileOSIS with array-aligned C tile
// dimensions. T_M takes the multiples of align below M, or M itself. T_L
// takes the multiples of align below L, or L itself, and keeps its raw
// value when no multiple of align fits, so the aligned construction stays
// feasible wherever the plain one is. The stationary C tile maps across the
// PE array, so an aligned tile keeps every pass fully occupied; FuseCU
// constructs its fused tiles aligned to the CU dimension for exactly this
// reason (§IV-A: "the stationary tile size has to match the array size").
//
// T_L is the largest tile the footprint admits beside T_M, so it never
// grows with T_M, and the traffic depends on the tiles only through their
// trip counts. dataflow.Frontier.Walk therefore returns the first minimizer
// of the full T_M sweep, pricing one point per run of T_L's trip count.
func ConstructTileOSISAligned(p Pair, bufferSize int64, align int) (Candidate, bool) {
	if align < 1 {
		align = 1
	}
	// Footprint with T_K = T_N = 1: tm·tl + 2·(tm + tl) ≤ BS.
	f := dataflow.Frontier{
		X: dataflow.Lattice{Ext: p.M(), Quantum: align, Limit: p.M()},
		Y: dataflow.Lattice{Ext: p.L(), Quantum: align, Limit: p.L(), Fine: true},
		C: 2, Budget: bufferSize,
	}
	eval := func(tm, tl int) (FusedDataflow, Access) {
		fd := FusedDataflow{Pattern: PatternTileOSIS, TM: tm, TK: 1, TL: tl, TN: 1}
		a, err := Evaluate(p, fd)
		if err != nil {
			// The walk keeps 1 ≤ tm ≤ M and 1 ≤ tl ≤ L.
			panic(fmt.Sprintf("fusion: tile-OS/IS walk left the pair's extents: %v", err))
		}
		return fd, a
	}
	tm, tl, ok := f.Walk(func(tm, tl int) int64 {
		_, a := eval(tm, tl)
		return a.Total
	})
	if !ok {
		return Candidate{}, false
	}
	fd, a := eval(tm, tl)
	return Candidate{Dataflow: fd, Access: a, Note: "tile fusion: OS producer → IS consumer"}, true
}

// ConstructColumn builds the principle-optimal column-fusion dataflow:
// K untiled, T_L = 1 column granularity, E row-block resident, T_M maximized
// under the footprint constraint.
func ConstructColumn(p Pair, bufferSize int64) (Candidate, bool) {
	return ConstructColumnAligned(p, bufferSize, 1)
}

// ConstructColumnAligned is ConstructColumn with the row-block height T_M
// restricted to multiples of align (or the full M extent). The column-like
// intermediate itself streams between array halves, so only T_M needs
// array alignment.
func ConstructColumnAligned(p Pair, bufferSize int64, align int) (Candidate, bool) {
	if align < 1 {
		align = 1
	}
	M, K, N := int64(p.M()), int64(p.K()), int64(p.N())
	// Footprint with T_L = 1, T_N = N: tm·K + K + tm + N + tm·N ≤ BS
	//   ⇒ tm ≤ (BS − K − N) / (K + N + 1)
	tm := (bufferSize - K - N) / (K + N + 1)
	if tm < 1 {
		return Candidate{}, false
	}
	if tm > M {
		tm = M
	}
	if tm < M && int64(align) > 1 {
		if snapped := (tm / int64(align)) * int64(align); snapped >= 1 {
			tm = snapped
		}
	}
	fd := FusedDataflow{Pattern: PatternColumn, TM: int(tm), TK: int(K), TL: 1, TN: int(N)}
	a, err := Evaluate(p, fd)
	if err != nil || a.Footprint > bufferSize {
		return Candidate{}, false
	}
	return Candidate{Dataflow: fd, Access: a, Note: "column fusion: IS producer → OS consumer, K untiled"}, true
}

// ConstructResident builds the Fig. 4(d/e) dataflow with C and E fully
// resident, reaching the fused ideal when the buffer allows it.
func ConstructResident(p Pair, bufferSize int64) (Candidate, bool) {
	fd := FusedDataflow{Pattern: PatternResident, TM: p.M(), TK: 1, TL: p.L(), TN: p.N()}
	a, err := Evaluate(p, fd)
	if err != nil || a.Footprint > bufferSize {
		return Candidate{}, false
	}
	return Candidate{Dataflow: fd, Access: a, Note: "resident fusion: C and E on-chip"}, true
}

// Construct builds the principle candidate for one pattern.
func Construct(p Pair, bufferSize int64, pattern Pattern) (Candidate, bool) {
	return ConstructAligned(p, bufferSize, pattern, 1)
}

// ConstructAligned builds the principle candidate for one pattern with
// array-aligned tiles.
func ConstructAligned(p Pair, bufferSize int64, pattern Pattern, align int) (Candidate, bool) {
	switch pattern {
	case PatternTileOSIS:
		return ConstructTileOSISAligned(p, bufferSize, align)
	case PatternColumn:
		return ConstructColumnAligned(p, bufferSize, align)
	case PatternResident:
		return ConstructResident(p, bufferSize)
	}
	return Candidate{}, false
}

// Best returns the cheapest feasible fused dataflow across all patterns.
func Best(p Pair, bufferSize int64) (Candidate, bool) {
	return BestAligned(p, bufferSize, 1)
}

// BestAligned is Best with array-aligned tiles.
func BestAligned(p Pair, bufferSize int64, align int) (Candidate, bool) {
	var best Candidate
	found := false
	for _, pat := range Patterns() {
		c, ok := ConstructAligned(p, bufferSize, pat, align)
		if !ok {
			continue
		}
		if !found || c.Access.Total < best.Access.Total {
			best, found = c, true
		}
	}
	return best, found
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

func boolFactor(cond bool, v int64) int64 {
	if cond {
		return v
	}
	return 1
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
