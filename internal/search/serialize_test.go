package search

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"fusecu/internal/cost"
	"fusecu/internal/dataflow"
	"fusecu/internal/model"
	"fusecu/internal/op"
)

// TestTableEncodeDeterministic pins the serialization contract that content
// addressing relies on: two independent fresh builds of the same (shape,
// grid) encode to identical bytes, and a decode→re-encode round trip is a
// fixed point.
func TestTableEncodeDeterministic(t *testing.T) {
	mm := op.MatMul{Name: "det", M: 12, K: 10, L: 8}
	a, err := NewCandTable(mm, GridFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCandTable(mm, GridFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := EncodeTable(a), EncodeTable(b)
	if string(ea) != string(eb) {
		t.Fatal("two fresh builds of the same table encode differently")
	}
	dec, err := DecodeTable(ea)
	if err != nil {
		t.Fatal(err)
	}
	if string(EncodeTable(dec)) != string(ea) {
		t.Fatal("decode→encode is not a fixed point")
	}
	if !reflect.DeepEqual(a, dec) {
		t.Fatal("decoded table differs structurally from the fresh build")
	}
}

// TestTableRoundTripRandomized is the round-trip property over randomized
// shapes and both grids: the decoded table answers Best and BestStationary
// bit-identically to the fresh build it was encoded from, across feasible
// and infeasible buffers.
func TestTableRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		mm := op.MatMul{
			Name: "rt",
			M:    rng.Intn(14) + 1,
			K:    rng.Intn(14) + 1,
			L:    rng.Intn(14) + 1,
		}
		grid := GridFull
		if trial%2 == 1 {
			grid = GridCoarse
		}
		fresh, err := NewCandTable(mm, grid, nil)
		if err != nil {
			t.Fatalf("%v: build: %v", mm, err)
		}
		dec, err := DecodeTable(EncodeTable(fresh))
		if err != nil {
			t.Fatalf("%v: decode: %v", mm, err)
		}
		checkTablesAnswerAlike(t, mm, fresh, dec)
	}
}

// TestTableRoundTripTableII is the acceptance property for the offline
// store: for every distinct operator shape of the Table II models plus the
// LLaMA2 sequence sweep, a table decoded from its serialized form answers
// Best bit-identically to a freshly built CandTable.
func TestTableRoundTripTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("builds coarse tables for every Table II shape")
	}
	for _, mm := range tableIIShapes(t) {
		fresh, err := NewCandTable(mm, GridCoarse, nil)
		if err != nil {
			t.Fatalf("%v: build: %v", mm, err)
		}
		dec, err := DecodeTable(EncodeTable(fresh))
		if err != nil {
			t.Fatalf("%v: decode: %v", mm, err)
		}
		checkTablesAnswerAlike(t, mm, fresh, dec)
	}
}

// tableIIShapes returns the deduplicated operator shapes of the Table II
// evaluation models and the Fig. 11 LLaMA2 sequence sweep — the model
// families fusecu-tablegen precomputes.
func tableIIShapes(t *testing.T) []op.MatMul {
	t.Helper()
	configs := model.TableII()
	for _, s := range model.Fig11SeqLengths() {
		configs = append(configs, model.LLaMA2WithSeq(s))
	}
	seen := map[[3]int]bool{}
	var out []op.MatMul
	for _, cfg := range configs {
		w, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, wc := range w.Chains {
			for _, mm := range wc.Chain.Ops {
				key := [3]int{mm.M, mm.K, mm.L}
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, mm)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no Table II shapes")
	}
	return out
}

// checkTablesAnswerAlike asserts two tables are indistinguishable through
// the query API across a buffer sweep spanning infeasible to unconstrained.
func checkTablesAnswerAlike(t *testing.T, mm op.MatMul, want, got *CandTable) {
	t.Helper()
	if want.Candidates() != got.Candidates() {
		t.Fatalf("%v: candidate counts differ: fresh %d vs decoded %d", mm, want.Candidates(), got.Candidates())
	}
	maxFP := mm.SizeA() + mm.SizeB() + mm.SizeC()
	buffers := []int64{1, 3, 7, 64, maxFP / 3, maxFP / 2, maxFP, maxFP * 2}
	for _, bs := range buffers {
		wr, werr := want.Best(bs)
		gr, gerr := got.Best(bs)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%v BS=%d: fresh err=%v, decoded err=%v", mm, bs, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(wr, gr) {
			t.Fatalf("%v BS=%d: decoded Best %+v != fresh %+v", mm, bs, gr, wr)
		}
		for k := 0; k < 3; k++ {
			wr, werr := want.BestStationary(dataflow.StationaryKind(k), bs)
			gr, gerr := got.BestStationary(dataflow.StationaryKind(k), bs)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%v BS=%d class %d: fresh err=%v, decoded err=%v", mm, bs, k, werr, gerr)
			}
			if werr == nil && !reflect.DeepEqual(wr, gr) {
				t.Fatalf("%v BS=%d class %d: decoded %+v != fresh %+v", mm, bs, k, gr, wr)
			}
		}
	}
}

// TestDecodeRejectsEveryByteFlip flips each byte of a valid artifact in
// turn: every mutation must fail decoding (each region is covered by a
// CRC32, and the step sections are additionally cross-checked against the
// live cost model) — and none may panic.
func TestDecodeRejectsEveryByteFlip(t *testing.T) {
	tab, err := NewCandTable(op.MatMul{Name: "flip", M: 6, K: 5, L: 4}, GridFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := EncodeTable(tab)
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0xff
		if _, err := DecodeTable(mut); err == nil {
			t.Fatalf("byte flip at offset %d decoded successfully", i)
		} else if !errors.Is(err, ErrTableFormat) && !errors.Is(err, ErrTableCostModel) {
			t.Fatalf("byte flip at offset %d: error %v is not classified", i, err)
		}
	}
}

// TestDecodeRejectsTruncation decodes every proper prefix of a valid
// artifact; all must fail cleanly.
func TestDecodeRejectsTruncation(t *testing.T) {
	tab, err := NewCandTable(op.MatMul{Name: "trunc", M: 5, K: 4, L: 3}, GridFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := EncodeTable(tab)
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeTable(blob[:n]); !errors.Is(err, ErrTableFormat) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrTableFormat", n, err)
		}
	}
	// Trailing garbage is rejected too.
	if _, err := DecodeTable(append(append([]byte(nil), blob...), 0)); !errors.Is(err, ErrTableFormat) {
		t.Fatalf("trailing byte: got %v, want ErrTableFormat", err)
	}
}

// TestDecodeRejectsWrongCostModelVersion rewrites the header's cost-model
// version (fixing the header checksum, so only the version check can catch
// it) and expects the dedicated sentinel.
func TestDecodeRejectsWrongCostModelVersion(t *testing.T) {
	tab, err := NewCandTable(op.MatMul{Name: "cmver", M: 5, K: 4, L: 3}, GridCoarse, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := patchCostModelVersion(t, EncodeTable(tab), "cmX")
	if _, err := DecodeTable(blob); !errors.Is(err, ErrTableCostModel) {
		t.Fatalf("got %v, want ErrTableCostModel", err)
	}
	if _, err := DecodeTable(blob); errors.Is(err, ErrTableFormat) {
		t.Fatal("cost-model mismatch must not be classified as a format error")
	}
}

// patchCostModelVersion overwrites the header's cost-model version string
// in place (same length required) and recomputes the header CRC32.
func patchCostModelVersion(t *testing.T, blob []byte, version string) []byte {
	t.Helper()
	if len(version) != len(cost.ModelVersion) {
		t.Fatalf("patch version %q must have length %d", version, len(cost.ModelVersion))
	}
	out := append([]byte(nil), blob...)
	copy(out[4+2+2:], version)
	resealHeader(out)
	return out
}

// TestDecodeAcceptsBuildCacheHits pins artifact compatibility: a build that
// reported part of its candidates as cache hits (evaluations + hits =
// candidates) still decodes and answers like a fresh build, while counters
// that do not partition the candidates are still rejected.
func TestDecodeAcceptsBuildCacheHits(t *testing.T) {
	mm := op.MatMul{Name: "hits", M: 9, K: 7, L: 5}
	tab, err := NewCandTable(mm, GridFull, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := EncodeTable(tab)
	if evals, hits := buildCounters(blob); evals != tab.Candidates() || hits != 0 {
		t.Fatalf("fresh build encodes counters (%d, %d), want (%d, 0)", evals, hits, tab.Candidates())
	}
	cached := patchBuildCounters(blob, tab.Candidates()-40, 40)
	dec, err := DecodeTable(cached)
	if err != nil {
		t.Fatalf("artifact with build cache hits rejected: %v", err)
	}
	checkTablesAnswerAlike(t, mm, tab, dec)
	if _, err := DecodeTable(patchBuildCounters(blob, tab.Candidates(), 1)); !errors.Is(err, ErrTableFormat) {
		t.Fatalf("non-partitioning counters: got %v, want ErrTableFormat", err)
	}
}

// countersOffset returns the header offset of the build-evaluations
// counter. Layout: magic(4) format(2) cmVerLen(2) cmVer nameLen(2) name
// dims(24) grid(1) candidates(8) buildEvals(8) buildHits(8) crc(4).
func countersOffset(blob []byte) int {
	verEnd := 4 + 2 + 2 + int(binary.LittleEndian.Uint16(blob[4+2:]))
	nameLen := int(binary.LittleEndian.Uint16(blob[verEnd:]))
	return verEnd + 2 + nameLen + 24 + 1 + 8
}

func buildCounters(blob []byte) (evals, hits int64) {
	off := countersOffset(blob)
	return int64(binary.LittleEndian.Uint64(blob[off:])), int64(binary.LittleEndian.Uint64(blob[off+8:]))
}

// patchBuildCounters rewrites the header's build counters and reseals it.
func patchBuildCounters(blob []byte, evals, hits int64) []byte {
	out := append([]byte(nil), blob...)
	off := countersOffset(out)
	binary.LittleEndian.PutUint64(out[off:], uint64(evals))
	binary.LittleEndian.PutUint64(out[off+8:], uint64(hits))
	resealHeader(out)
	return out
}

// resealHeader recomputes the header section's CRC32 in place.
func resealHeader(blob []byte) {
	headerLen := countersOffset(blob) + 16
	binary.LittleEndian.PutUint32(blob[headerLen:], crc32.ChecksumIEEE(blob[:headerLen]))
}
