package service

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fusecu/api"
	"fusecu/internal/metrics"
	"fusecu/internal/op"
	"fusecu/internal/search"
	"fusecu/internal/tablestore"
)

// tableRegistry is the server's bounded per-shape candidate-table store:
// concurrent /v1/search traffic for identically shaped operators shares one
// footprint-indexed table, resolved disk → LRU → build. With a tablestore
// configured, the single-flight slot first tries the precomputed artifact
// (table_loads); a missing artifact builds fresh (table_builds), and a
// present-but-invalid one is logged, counted (table_load_errors), and also
// builds fresh — the decoder's validation guarantees a loaded table is
// bit-identical to that build, so either source answers alike. Duplicate
// concurrent requests block on the resolution instead of racing it, and
// entries are evicted LRU beyond the capacity bound. Operator names are not
// part of the key — cost depends only on the dimensions and the lattice.
//
// Eviction only unlinks the registry's reference; requests already holding
// a table keep using it (tables are immutable), and the next request for an
// evicted shape resolves again through the disk store or a fresh build.
type tableRegistry struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // of tableKey; front = most recently used
	entries map[tableKey]*tableEntry
	store   *tablestore.Store
	logf    func(format string, args ...any)

	builds, hits, errors, evictions *metrics.Counter
	loads, loadErrors               *metrics.Counter
	resident                        *metrics.Gauge
}

// tableKey identifies one table by operator shape and lattice.
type tableKey struct {
	m, k, l int
	grid    search.Grid
}

// shapeHash is the key's content address — the artifact/introspection
// identity shared with the api package and the disk store.
func (k tableKey) shapeHash() string {
	return api.ShapeHash(k.m, k.k, k.l, k.grid.String())
}

// tableEntry is one registry slot. The once gate makes resolution
// single-flight: every request for the shape observes the same outcome.
// done flips true (with release semantics) only after table/err/source are
// written, so the introspection snapshot can read them without blocking
// behind an in-flight build.
type tableEntry struct {
	once    sync.Once
	table   *search.CandTable
	err     error
	source  string // "disk" or "built", set before done
	done    atomic.Bool
	hits    atomic.Int64
	created time.Time
	elem    *list.Element
}

func newTableRegistry(capacity int, reg *metrics.Registry,
	store *tablestore.Store, logf func(format string, args ...any)) *tableRegistry {
	return &tableRegistry{
		cap:        capacity,
		lru:        list.New(),
		entries:    map[tableKey]*tableEntry{},
		store:      store,
		logf:       logf,
		builds:     reg.Counter("table_builds"),
		hits:       reg.Counter("table_hits"),
		errors:     reg.Counter("table_build_errors"),
		evictions:  reg.Counter("table_evictions"),
		loads:      reg.Counter("table_loads"),
		loadErrors: reg.Counter("table_load_errors"),
		resident:   reg.Gauge("tables_resident"),
	}
}

// get returns the shared table for mm's shape over grid, resolving it on
// first use: precomputed disk artifact if the store holds a valid one,
// fresh build otherwise. A build failure (e.g. an injected fault reaching
// the cost model) is returned to every request that waited on it, then the
// slot is discarded so the next request retries instead of pinning a
// transient error forever.
func (r *tableRegistry) get(mm op.MatMul, grid search.Grid) (*search.CandTable, error) {
	key := tableKey{m: mm.M, k: mm.K, l: mm.L, grid: grid}
	r.mu.Lock()
	e, ok := r.entries[key]
	if ok {
		r.lru.MoveToFront(e.elem)
		r.hits.Inc()
		e.hits.Add(1)
	} else {
		e = &tableEntry{created: time.Now()}
		e.elem = r.lru.PushFront(key)
		r.entries[key] = e
		for r.lru.Len() > r.cap {
			back := r.lru.Back()
			delete(r.entries, back.Value.(tableKey))
			r.lru.Remove(back)
			r.evictions.Inc()
		}
		r.resident.Set(int64(r.lru.Len()))
	}
	r.mu.Unlock()

	e.once.Do(func() {
		defer e.done.Store(true)
		if r.store != nil {
			tab, lerr := r.store.Load(mm, grid)
			switch {
			case lerr == nil:
				r.loads.Inc()
				e.table, e.source = tab, "disk"
				return
			case errors.Is(lerr, tablestore.ErrNotFound):
				// No artifact for this shape — the normal build path.
			default:
				// A file exists but failed validation (truncation, checksum,
				// cost-model drift, mislabeling). Never serve it: log why and
				// rebuild from scratch.
				r.loadErrors.Inc()
				if r.logf != nil {
					r.logf("table %s: rejecting disk artifact, rebuilding: %v", key.shapeHash(), lerr)
				}
			}
		}
		r.builds.Inc()
		e.table, e.err = search.NewCandTable(mm, grid, nil)
		e.source = "built"
	})
	if e.err != nil {
		r.errors.Inc()
		r.mu.Lock()
		if cur, ok := r.entries[key]; ok && cur == e {
			delete(r.entries, key)
			r.lru.Remove(e.elem)
			r.resident.Set(int64(r.lru.Len()))
		}
		r.mu.Unlock()
		return nil, e.err
	}
	return e.table, nil
}

// snapshot lists the resolved resident tables, most recently used first,
// for GET /v1/tables. Entries still resolving (or failed) are skipped.
func (r *tableRegistry) snapshot() []api.TableInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]api.TableInfo, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		key := el.Value.(tableKey)
		e := r.entries[key]
		if e == nil || !e.done.Load() || e.err != nil {
			continue
		}
		mm := e.table.Op()
		out = append(out, api.TableInfo{
			ShapeHash:  key.shapeHash(),
			Op:         api.OpSpec{Name: mm.Name, M: mm.M, K: mm.K, L: mm.L},
			Grid:       key.grid.String(),
			Source:     e.source,
			Candidates: e.table.Candidates(),
			Hits:       e.hits.Load(),
			AgeMS:      time.Since(e.created).Milliseconds(),
		})
	}
	return out
}

// evict removes the resident tables whose content address matches
// shapeHash (both grids of a shape have distinct hashes, so this is one
// entry in practice). Requests already holding the table keep it; the next
// request re-resolves disk → build.
func (r *tableRegistry) evict(shapeHash string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	evicted := false
	for el := r.lru.Front(); el != nil; {
		next := el.Next()
		key := el.Value.(tableKey)
		if key.shapeHash() == shapeHash {
			delete(r.entries, key)
			r.lru.Remove(el)
			r.evictions.Inc()
			evicted = true
		}
		el = next
	}
	if evicted {
		r.resident.Set(int64(r.lru.Len()))
	}
	return evicted
}

// len reports the resident table count (tests).
func (r *tableRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}
