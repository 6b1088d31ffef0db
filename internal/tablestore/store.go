// Package tablestore persists candidate tables as content-addressed
// artifacts on disk. Each file is one serialized CandTable named by the
// shape hash of its operator and grid plus the cost-model version it was
// built under:
//
//	<shapehash>-<costmodel>.fct
//
// so that a cost-model bump orphans stale artifacts instead of loading
// them, and the caller falls back to a fresh build. Publication is atomic
// (write to a temp file in the same directory, then rename), so a reader
// racing a publish sees either the complete old artifact, the complete new
// one, or nothing — never a torn file. Every load re-validates the artifact
// through search.DecodeTable's checksums and live cost-model cross-check; a
// corrupt file is reported as such, never returned as a table.
package tablestore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"fusecu/api"
	"fusecu/internal/cost"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// Ext is the artifact file extension ("fusecu candidate table").
const Ext = ".fct"

// ManifestName is the per-directory index fusecu-tablegen writes alongside
// the artifacts. The store itself never reads it — the artifacts are
// self-describing — but tooling and CI use it to see what a directory holds
// without decoding every file.
const ManifestName = "manifest.json"

// ErrNotFound reports that a store holds no artifact for the requested
// shape, grid, and running cost-model version.
var ErrNotFound = errors.New("tablestore: no artifact for shape")

// Store is a directory of candidate-table artifacts.
type Store struct {
	dir string
}

// Open returns a store over dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("tablestore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tablestore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// FileName returns the content-addressed artifact name for a shape and
// grid under the running cost-model version.
func FileName(mm op.MatMul, grid search.Grid) string {
	return api.ShapeHash(mm.M, mm.K, mm.L, grid.String()) + "-" + cost.ModelVersion + Ext
}

// Path returns the absolute artifact path for a shape and grid.
func (s *Store) Path(mm op.MatMul, grid search.Grid) string {
	return filepath.Join(s.dir, FileName(mm, grid))
}

// Load reads, decodes, and fully validates the artifact for (mm, grid).
// A missing artifact returns ErrNotFound (also satisfying
// errors.Is(err, fs.ErrNotExist)); a present-but-invalid one returns the
// decoder's error so the caller can log why it fell back to building.
func (s *Store) Load(mm op.MatMul, grid search.Grid) (*search.CandTable, error) {
	path := s.Path(mm, grid)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %w", ErrNotFound, err)
		}
		return nil, fmt.Errorf("tablestore: read %s: %w", path, err)
	}
	t, err := search.DecodeTable(data)
	if err != nil {
		return nil, fmt.Errorf("tablestore: %s: %w", filepath.Base(path), err)
	}
	// The artifact is self-describing and its name is derived from its
	// contents; a mismatch means the file was renamed or mislabeled.
	if got := t.Op(); got.M != mm.M || got.K != mm.K || got.L != mm.L || t.Grid() != grid {
		return nil, fmt.Errorf("tablestore: %s holds %v over %s grid, want %v over %s",
			filepath.Base(path), got, t.Grid(), mm, grid)
	}
	return t, nil
}

// Put publishes a table atomically: the encoded artifact is written to a
// temp file in the store directory and renamed into place, so concurrent
// loaders never observe a partial write. Returns the artifact file name.
func (s *Store) Put(t *search.CandTable) (string, error) {
	name := FileName(t.Op(), t.Grid())
	tmp, err := os.CreateTemp(s.dir, name+".tmp*")
	if err != nil {
		return "", fmt.Errorf("tablestore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(search.EncodeTable(t)); err != nil {
		tmp.Close()
		return "", fmt.Errorf("tablestore: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("tablestore: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return "", fmt.Errorf("tablestore: publish %s: %w", name, err)
	}
	return name, nil
}

// ManifestEntry describes one published artifact.
type ManifestEntry struct {
	File       string     `json:"file"`
	ShapeHash  string     `json:"shape_hash"`
	Op         api.OpSpec `json:"op"`
	Grid       string     `json:"grid"`
	Candidates int64      `json:"candidates"`
	Bytes      int64      `json:"bytes"`
}

// Manifest indexes a store directory for tooling and CI.
type Manifest struct {
	CostModelVersion   string          `json:"cost_model_version"`
	TableFormatVersion int             `json:"table_format_version"`
	Tables             []ManifestEntry `json:"tables"`
}

// WriteManifest publishes a manifest (sorted by file name for determinism)
// with the same atomic temp-then-rename discipline as artifacts.
func (s *Store) WriteManifest(entries []ManifestEntry) error {
	sort.Slice(entries, func(i, j int) bool { return entries[i].File < entries[j].File })
	m := Manifest{
		CostModelVersion:   cost.ModelVersion,
		TableFormatVersion: search.TableFormatVersion,
		Tables:             entries,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("tablestore: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(s.dir, ManifestName+".tmp*")
	if err != nil {
		return fmt.Errorf("tablestore: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("tablestore: write manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("tablestore: close manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, ManifestName)); err != nil {
		return fmt.Errorf("tablestore: publish manifest: %w", err)
	}
	return nil
}

// ReadManifest loads the directory's manifest.
func (s *Store) ReadManifest() (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("tablestore: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("tablestore: manifest: %w", err)
	}
	return &m, nil
}
