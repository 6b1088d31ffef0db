package tablestore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fusecu/api"
	"fusecu/internal/cost"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

func toOpSpec(mm op.MatMul) api.OpSpec {
	return api.OpSpec{Name: mm.Name, M: mm.M, K: mm.K, L: mm.L}
}

func buildTable(t *testing.T, mm op.MatMul, grid search.Grid) *search.CandTable {
	t.Helper()
	tab, err := search.NewCandTable(mm, grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestPutLoadRoundTrip publishes a table and loads it back: the loaded
// table must be structurally identical, and its artifact name must embed
// the shape hash and the running cost-model version.
func TestPutLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mm := op.MatMul{Name: "rt", M: 10, K: 8, L: 6}
	fresh := buildTable(t, mm, search.GridFull)
	name, err := st.Put(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(name, "-"+cost.ModelVersion+Ext) {
		t.Fatalf("artifact name %q does not embed cost-model version", name)
	}
	if name != FileName(mm, search.GridFull) {
		t.Fatalf("Put published %q, FileName says %q", name, FileName(mm, search.GridFull))
	}
	loaded, err := st.Load(mm, search.GridFull)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, loaded) {
		t.Fatal("loaded table differs from published table")
	}
	// No leftover temp files after publish.
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("store directory holds %d files after one publish, want 1", len(entries))
	}
}

// TestLoadMissing distinguishes "no artifact" (ErrNotFound, also
// fs.ErrNotExist) from every corruption error, so a caller can count
// misses and load failures separately.
func TestLoadMissing(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Load(op.MatMul{Name: "miss", M: 4, K: 4, L: 4}, search.GridCoarse)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("got %v, want fs.ErrNotExist in the chain", err)
	}
}

// TestLoadRejectsTruncatedFile cuts a published artifact short; Load must
// fail with a format error, not ErrNotFound — the caller falls back to a
// fresh build and counts a load error.
func TestLoadRejectsTruncatedFile(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mm := op.MatMul{Name: "trunc", M: 6, K: 5, L: 4}
	if _, err := st.Put(buildTable(t, mm, search.GridFull)); err != nil {
		t.Fatal(err)
	}
	path := st.Path(mm, search.GridFull)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.Load(mm, search.GridFull)
	if !errors.Is(err, search.ErrTableFormat) {
		t.Fatalf("got %v, want ErrTableFormat", err)
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatal("truncation must not be reported as not-found")
	}
}

// TestLoadRejectsFlippedChecksumByte flips one byte inside a published
// artifact's trailing header CRC; the load must fail the checksum.
func TestLoadRejectsFlippedChecksumByte(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mm := op.MatMul{Name: "flip", M: 6, K: 5, L: 4}
	if _, err := st.Put(buildTable(t, mm, search.GridCoarse)); err != nil {
		t.Fatal(err)
	}
	path := st.Path(mm, search.GridCoarse)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen(t, data)] ^= 0x01 // first byte of the header CRC32
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.Load(mm, search.GridCoarse)
	if !errors.Is(err, search.ErrTableFormat) {
		t.Fatalf("got %v, want ErrTableFormat", err)
	}
}

// TestLoadRejectsWrongCostModelVersion rewrites the embedded cost-model
// version (repairing the checksum so only the version gate can object);
// Load must surface ErrTableCostModel so the caller logs the right reason.
func TestLoadRejectsWrongCostModelVersion(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mm := op.MatMul{Name: "cmver", M: 6, K: 5, L: 4}
	if _, err := st.Put(buildTable(t, mm, search.GridCoarse)); err != nil {
		t.Fatal(err)
	}
	path := st.Path(mm, search.GridCoarse)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Repeat("x", len(cost.ModelVersion))
	copy(data[4+2+2:], stale) // magic(4) format(2) verLen(2), then the version bytes
	hl := headerLen(t, data)
	binary.LittleEndian.PutUint32(data[hl:], crc32.ChecksumIEEE(data[:hl]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.Load(mm, search.GridCoarse)
	if !errors.Is(err, search.ErrTableCostModel) {
		t.Fatalf("got %v, want ErrTableCostModel", err)
	}
}

// TestLoadIgnoresStaleCostModelArtifacts: an artifact published under an
// older cost-model version has a different file name, so the store simply
// doesn't see it — a version bump orphans the file instead of loading it.
func TestLoadIgnoresStaleCostModelArtifacts(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mm := op.MatMul{Name: "stale", M: 5, K: 4, L: 3}
	name, err := st.Put(buildTable(t, mm, search.GridFull))
	if err != nil {
		t.Fatal(err)
	}
	staleName := strings.Replace(name, "-"+cost.ModelVersion+Ext, "-cm0"+Ext, 1)
	if err := os.Rename(filepath.Join(st.Dir(), name), filepath.Join(st.Dir(), staleName)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(mm, search.GridFull); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound for stale-version artifact", err)
	}
}

// TestLoadRejectsMislabeledArtifact copies a valid artifact of one shape
// to another shape's file name; the decoder's self-description check must
// catch it even though every checksum passes.
func TestLoadRejectsMislabeledArtifact(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mm := op.MatMul{Name: "real", M: 6, K: 5, L: 4}
	other := op.MatMul{Name: "other", M: 7, K: 5, L: 4}
	if _, err := st.Put(buildTable(t, mm, search.GridFull)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.Path(mm, search.GridFull))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path(other, search.GridFull), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(other, search.GridFull); err == nil {
		t.Fatal("mislabeled artifact loaded successfully")
	}
}

// TestConcurrentLoadWhilePublish hammers Load while Put repeatedly
// republishes the same artifact. Atomic rename means every load sees a
// complete artifact or a clean miss — never a torn read. Run under -race
// this also checks the store itself shares no unsynchronized state.
func TestConcurrentLoadWhilePublish(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mm := op.MatMul{Name: "race", M: 8, K: 6, L: 5}
	fresh := buildTable(t, mm, search.GridFull)

	const publishers, loaders, rounds = 2, 4, 50
	var wg sync.WaitGroup
	errc := make(chan error, publishers+loaders)
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := st.Put(fresh); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tab, err := st.Load(mm, search.GridFull)
				if errors.Is(err, ErrNotFound) {
					continue // raced ahead of the first publish
				}
				if err != nil {
					errc <- err
					return
				}
				if tab.Candidates() != fresh.Candidates() {
					errc <- errors.New("loaded table with wrong candidate count")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("load-while-publish: %v", err)
	}
}

// TestManifestRoundTrip writes and reads back a manifest, pinning the
// version stamps tooling relies on.
func TestManifestRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mm := op.MatMul{Name: "man", M: 5, K: 4, L: 3}
	tab := buildTable(t, mm, search.GridCoarse)
	name, err := st.Put(tab)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(st.Dir(), name))
	if err != nil {
		t.Fatal(err)
	}
	entries := []ManifestEntry{{
		File:       name,
		ShapeHash:  strings.TrimSuffix(name, "-"+cost.ModelVersion+Ext),
		Op:         toOpSpec(mm),
		Grid:       search.GridCoarse.String(),
		Candidates: tab.Candidates(),
		Bytes:      fi.Size(),
	}}
	if err := st.WriteManifest(entries); err != nil {
		t.Fatal(err)
	}
	m, err := st.ReadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.CostModelVersion != cost.ModelVersion || m.TableFormatVersion != search.TableFormatVersion {
		t.Fatalf("manifest versions %q/%d, want %q/%d",
			m.CostModelVersion, m.TableFormatVersion, cost.ModelVersion, search.TableFormatVersion)
	}
	if !reflect.DeepEqual(m.Tables, entries) {
		t.Fatalf("manifest tables %+v, want %+v", m.Tables, entries)
	}
}

// headerLen returns the offset of the header section's trailing CRC32 in a
// serialized table, mirroring the layout pinned by internal/search:
// magic(4) format(2) cmVer(str) name(str) dims(3×8) grid(1) counters(3×8).
func headerLen(t *testing.T, data []byte) int {
	t.Helper()
	off := 4 + 2
	verLen := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2 + verLen
	nameLen := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2 + nameLen
	return off + 24 + 1 + 24
}
