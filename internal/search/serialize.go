package search

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/op"
)

// This file makes CandTable a persistent artifact: a deterministic binary
// encoding (little-endian, fixed field order, no maps) so that encoding a
// freshly built table is bit-identical across processes and architectures,
// plus a strict decoder that would rather rebuild than serve a doubtful
// byte. The layout is
//
//	header  : magic "FCT1", u16 format version, cost-model version string,
//	          operator (name, M, K, L), grid, candidate/build counters
//	sections: per-rotation-class footprint index ×3, global step function,
//	          per-rotation-class step functions ×3
//
// with a CRC32 (IEEE) trailer after the header and after every section, so
// a flipped byte is localized to a section instead of merely failing a
// whole-file hash. Beyond checksums, the decoder re-derives everything it
// can: the candidate count must match TableCandidates for the declared
// shape and grid, footprint indexes must be sorted, step functions must be
// strictly increasing, and — the property that matters — every step's
// stored Access is recomputed through the live cost model and compared.
// Steps are few, so this costs microseconds and guarantees a loaded table
// can never answer Best with a cost the current model would not produce,
// even against a checksum-colliding corruption or a mislabeled file.

// TableFormatVersion is the on-disk format generation of serialized
// candidate tables. Bump it on any layout change; the decoder refuses other
// generations and the store treats that as not-found, forcing a rebuild.
const TableFormatVersion = 1

// tableMagic opens every serialized candidate table.
var tableMagic = [4]byte{'F', 'C', 'T', '1'}

// ErrTableFormat classifies every way a serialized table can fail decoding
// short of a cost-model mismatch: wrong magic, unknown format version,
// truncation, checksum failure, or internally inconsistent contents.
var ErrTableFormat = errors.New("search: invalid candidate-table artifact")

// ErrTableCostModel reports an artifact built under a different cost-model
// version: structurally sound, but its baked-in costs carry no bit-identity
// guarantee against the running model.
var ErrTableCostModel = errors.New("search: candidate-table cost-model version mismatch")

// EncodeTable serializes t. The encoding is deterministic: two tables with
// equal contents — in particular, a decoded table and the fresh build it
// came from — produce identical bytes.
func EncodeTable(t *CandTable) []byte {
	var e tableEncoder
	e.section(func() {
		e.raw(tableMagic[:])
		e.u16(TableFormatVersion)
		e.str(cost.ModelVersion)
		e.str(t.mm.Name)
		e.i64(int64(t.mm.M))
		e.i64(int64(t.mm.K))
		e.i64(int64(t.mm.L))
		e.u8(uint8(t.grid))
		e.i64(t.candidates)
		// Build counters (evaluations, cache hits): a build prices every
		// candidate once, so they are (candidates, 0). The slots keep the
		// layout, so artifacts whose builds reported cache hits still decode.
		e.i64(t.candidates)
		e.i64(0)
	})
	for ci := range t.classFoot {
		foot := t.classFoot[ci]
		e.section(func() {
			e.i64(int64(len(foot)))
			for _, f := range foot {
				e.i64(f)
			}
		})
	}
	e.stepSection(t.steps)
	for ci := range t.classSteps {
		e.stepSection(t.classSteps[ci])
	}
	return e.buf
}

type tableEncoder struct {
	buf []byte
}

func (e *tableEncoder) raw(b []byte) { e.buf = append(e.buf, b...) }
func (e *tableEncoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *tableEncoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *tableEncoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *tableEncoder) i64(v int64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }

func (e *tableEncoder) str(s string) {
	e.u16(uint16(len(s)))
	e.raw([]byte(s))
}

// section runs fill, then appends the CRC32 of the bytes fill produced.
func (e *tableEncoder) section(fill func()) {
	start := len(e.buf)
	fill()
	e.u32(crc32.ChecksumIEEE(e.buf[start:]))
}

func (e *tableEncoder) stepSection(steps []tableStep) {
	e.section(func() {
		e.i64(int64(len(steps)))
		for _, st := range steps {
			e.i64(st.foot)
			e.u8(orderIndexOf(st.df.Order))
			e.i64(int64(st.df.Tiling.TM))
			e.i64(int64(st.df.Tiling.TK))
			e.i64(int64(st.df.Tiling.TL))
			for _, v := range st.access.PerTensor {
				e.i64(v)
			}
			e.i64(st.access.OutputReads)
			e.i64(st.access.OutputWrites)
			e.i64(st.access.Total)
			e.i64(st.access.Footprint)
			e.u8(uint8(st.access.NRA))
		}
	})
}

// orderIndexOf maps an order back to its AllOrders index.
func orderIndexOf(o dataflow.Order) uint8 {
	for i, c := range dataflow.AllOrders() {
		if c == o {
			return uint8(i)
		}
	}
	panic(fmt.Sprintf("search: order %v not in AllOrders", o))
}

// DecodeTable parses and fully validates a serialized candidate table. Any
// structural problem wraps ErrTableFormat; an artifact from another
// cost-model generation wraps ErrTableCostModel. A table returned without
// error is indistinguishable from a fresh NewCandTable build over the same
// shape and grid.
func DecodeTable(data []byte) (*CandTable, error) {
	d := tableDecoder{buf: data}
	t, err := d.decode()
	if err != nil {
		if errors.Is(err, ErrTableCostModel) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %w", ErrTableFormat, err)
	}
	return t, nil
}

type tableDecoder struct {
	buf []byte
	off int
	// secStart marks where the current checksummed section began.
	secStart int
}

func (d *tableDecoder) take(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.buf) {
		return nil, fmt.Errorf("truncated at byte %d (need %d more)", d.off, n)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *tableDecoder) u8() (uint8, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *tableDecoder) u16() (uint16, error) {
	b, err := d.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (d *tableDecoder) i64() (int64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

func (d *tableDecoder) str() (string, error) {
	n, err := d.u16()
	if err != nil {
		return "", err
	}
	b, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// beginSection marks the start of a checksummed region; endSection consumes
// and verifies its trailing CRC32.
func (d *tableDecoder) beginSection() { d.secStart = d.off }

func (d *tableDecoder) endSection(name string) error {
	payload := d.buf[d.secStart:d.off]
	b, err := d.take(4)
	if err != nil {
		return fmt.Errorf("%s section: %w", name, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b); got != want {
		return fmt.Errorf("%s section checksum mismatch (got %08x, want %08x)", name, got, want)
	}
	return nil
}

func (d *tableDecoder) decode() (*CandTable, error) {
	d.beginSection()
	magic, err := d.take(4)
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != tableMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	format, err := d.u16()
	if err != nil {
		return nil, err
	}
	if format != TableFormatVersion {
		return nil, fmt.Errorf("format version %d (supported: %d)", format, TableFormatVersion)
	}
	cmVer, err := d.str()
	if err != nil {
		return nil, err
	}
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	var dims [3]int64
	for i := range dims {
		if dims[i], err = d.i64(); err != nil {
			return nil, err
		}
	}
	gridByte, err := d.u8()
	if err != nil {
		return nil, err
	}
	candidates, err := d.i64()
	if err != nil {
		return nil, err
	}
	buildEvals, err := d.i64()
	if err != nil {
		return nil, err
	}
	buildHits, err := d.i64()
	if err != nil {
		return nil, err
	}
	if err := d.endSection("header"); err != nil {
		return nil, err
	}

	// The header is authenticated; now hold it to the live code's rules.
	if cmVer != cost.ModelVersion {
		return nil, fmt.Errorf("%w: artifact %q, running %q", ErrTableCostModel, cmVer, cost.ModelVersion)
	}
	const maxDim = 1 << 31
	for _, v := range dims {
		if v <= 0 || v >= maxDim {
			return nil, fmt.Errorf("dimension %d out of range", v)
		}
	}
	mm := op.MatMul{Name: name, M: int(dims[0]), K: int(dims[1]), L: int(dims[2])}
	if err := mm.Validate(); err != nil {
		return nil, err
	}
	grid := Grid(gridByte)
	if grid != GridFull && grid != GridCoarse {
		return nil, fmt.Errorf("unknown grid %d", gridByte)
	}
	if want := TableCandidates(mm, grid); candidates != want {
		return nil, fmt.Errorf("candidate count %d does not match %v over %s grid (want %d)", candidates, mm, grid, want)
	}
	if buildEvals < 0 || buildHits < 0 || buildEvals+buildHits != candidates {
		return nil, fmt.Errorf("build counters %d+%d do not partition %d candidates", buildEvals, buildHits, candidates)
	}

	t := &CandTable{mm: mm, grid: grid, candidates: candidates}
	var indexed int64
	for ci := range t.classFoot {
		d.beginSection()
		n, err := d.i64()
		if err != nil {
			return nil, err
		}
		if n < 0 || n > candidates {
			return nil, fmt.Errorf("class %d footprint index length %d out of range", ci, n)
		}
		foot := make([]int64, n)
		for i := range foot {
			if foot[i], err = d.i64(); err != nil {
				return nil, err
			}
			if foot[i] < 3 || (i > 0 && foot[i] < foot[i-1]) {
				return nil, fmt.Errorf("class %d footprint index not sorted at %d", ci, i)
			}
		}
		if err := d.endSection("footprint-index"); err != nil {
			return nil, err
		}
		t.classFoot[ci] = foot
		indexed += n
	}
	if indexed != candidates {
		return nil, fmt.Errorf("footprint indexes cover %d of %d candidates", indexed, candidates)
	}

	if t.steps, err = d.stepSection(mm, "global", -1); err != nil {
		return nil, err
	}
	for ci := range t.classSteps {
		if t.classSteps[ci], err = d.stepSection(mm, fmt.Sprintf("class-%d", ci), ci); err != nil {
			return nil, err
		}
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%d trailing bytes", len(d.buf)-d.off)
	}
	return t, nil
}

// stepSection decodes and verifies one step function. class < 0 means the
// global fold; otherwise every step's loop order must keep that rotation
// class stationary. Each step's stored cost is recomputed through the live
// cost model — a decoded table can answer Best only with costs the current
// model reproduces.
func (d *tableDecoder) stepSection(mm op.MatMul, label string, class int) ([]tableStep, error) {
	orders := dataflow.AllOrders()
	d.beginSection()
	n, err := d.i64()
	if err != nil {
		return nil, err
	}
	if n <= 0 || n > int64(len(d.buf)/8) {
		return nil, fmt.Errorf("%s steps: count %d out of range", label, n)
	}
	steps := make([]tableStep, n)
	for i := range steps {
		foot, err := d.i64()
		if err != nil {
			return nil, err
		}
		oi, err := d.u8()
		if err != nil {
			return nil, err
		}
		var tiles [3]int64
		for j := range tiles {
			if tiles[j], err = d.i64(); err != nil {
				return nil, err
			}
		}
		var acc cost.Access
		for j := range acc.PerTensor {
			if acc.PerTensor[j], err = d.i64(); err != nil {
				return nil, err
			}
		}
		if acc.OutputReads, err = d.i64(); err != nil {
			return nil, err
		}
		if acc.OutputWrites, err = d.i64(); err != nil {
			return nil, err
		}
		if acc.Total, err = d.i64(); err != nil {
			return nil, err
		}
		if acc.Footprint, err = d.i64(); err != nil {
			return nil, err
		}
		nra, err := d.u8()
		if err != nil {
			return nil, err
		}
		acc.NRA = dataflow.NRAClass(nra)

		if i > 0 && foot <= steps[i-1].foot {
			return nil, fmt.Errorf("%s steps: footprints not strictly increasing at %d", label, i)
		}
		if int(oi) >= len(orders) {
			return nil, fmt.Errorf("%s steps: order index %d out of range", label, oi)
		}
		order := orders[oi]
		if class >= 0 && int(order.Stationary().Kind()) != class {
			return nil, fmt.Errorf("%s steps: order %v is not %v-stationary", label, order, dataflow.StationaryKind(class))
		}
		tiling, err := dataflow.NewTiling(mm, int(tiles[0]), int(tiles[1]), int(tiles[2]))
		if err != nil {
			return nil, fmt.Errorf("%s steps: %w", label, err)
		}
		df, err := dataflow.New(mm, order, tiling)
		if err != nil {
			return nil, fmt.Errorf("%s steps: %w", label, err)
		}
		if fp := tiling.Footprint(); fp != foot {
			return nil, fmt.Errorf("%s steps: stored footprint %d != tiling footprint %d", label, foot, fp)
		}
		live, err := cost.Evaluate(mm, df)
		if err != nil {
			return nil, fmt.Errorf("%s steps: %w", label, err)
		}
		if live != acc {
			return nil, fmt.Errorf("%s steps: stored cost %+v disagrees with live cost model %+v", label, acc, live)
		}
		steps[i] = tableStep{foot: foot, df: df, access: acc}
	}
	if err := d.endSection(label + "-steps"); err != nil {
		return nil, err
	}
	return steps, nil
}
