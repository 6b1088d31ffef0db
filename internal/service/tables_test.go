package service

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"fusecu/api"
	"fusecu/internal/faultinject"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// searchBody builds a /v1/search request body for mm.
func searchBody(mm op.MatMul, buffer int64, engine string) string {
	return fmt.Sprintf(`{"op":{"name":%q,"m":%d,"k":%d,"l":%d},"buffer":%d,"engine":%q}`,
		mm.Name, mm.M, mm.K, mm.L, buffer, engine)
}

// TestSearchTableBitIdentityAcrossEngines drives every table-served engine
// through the endpoint and checks the answers against the frozen reference
// engines — the end-to-end version of the candtable property tests — and
// checks that auto answers from the analytic engine without a table.
func TestSearchTableBitIdentityAcrossEngines(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	mm := op.MatMul{Name: "tbl", M: 36, K: 28, L: 30}
	const buffer = 2048
	wantFull, err := search.ReferenceExhaustive(mm, buffer)
	if err != nil {
		t.Fatal(err)
	}
	wantCoarse, err := search.ReferenceCoarse(mm, buffer)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		engine string
		want   search.Result
	}{
		{"exhaustive", wantFull},
		{"coarse", wantCoarse},
	} {
		var resp searchResponse
		code, raw := post(t, ts, "/v1/search", searchBody(mm, buffer, tc.engine), &resp)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.engine, code, raw)
		}
		if resp.Dataflow.MemoryAccess != tc.want.Access.Total ||
			resp.Dataflow.TM != tc.want.Dataflow.Tiling.TM ||
			resp.Dataflow.TK != tc.want.Dataflow.Tiling.TK ||
			resp.Dataflow.TL != tc.want.Dataflow.Tiling.TL {
			t.Fatalf("%s: table-served answer %+v != reference %+v", tc.engine, resp.Dataflow, tc.want.Dataflow)
		}
		if resp.Evaluations+resp.CacheHits == 0 {
			t.Fatalf("%s: no candidate visits reported", tc.engine)
		}
	}
	// auto is the exact analytic engine alone: it matches OptimizeAnalytic
	// bit for bit and builds no table.
	wantAuto, err := search.OptimizeAnalytic(mm, buffer)
	if err != nil {
		t.Fatal(err)
	}
	var resp searchResponse
	code, raw := post(t, ts, "/v1/search", searchBody(mm, buffer, "auto"), &resp)
	if code != http.StatusOK {
		t.Fatalf("auto: status %d: %s", code, raw)
	}
	if resp.Method != "analytic" || resp.Evaluations != wantAuto.Evaluations || resp.CacheHits != 0 ||
		resp.Dataflow.MemoryAccess != wantAuto.Access.Total ||
		resp.Dataflow.TM != wantAuto.Dataflow.Tiling.TM ||
		resp.Dataflow.TK != wantAuto.Dataflow.Tiling.TK ||
		resp.Dataflow.TL != wantAuto.Dataflow.Tiling.TL {
		t.Fatalf("auto: answer %s %+v (%d evals, %d hits) != analytic %+v (%d evals)",
			resp.Method, resp.Dataflow, resp.Evaluations, resp.CacheHits, wantAuto.Dataflow, wantAuto.Evaluations)
	}

	// Three engines over two grids → exactly two tables resident (full and
	// coarse share the registry; auto uses none).
	if got := s.tables.len(); got != 2 {
		t.Fatalf("tables resident = %d, want 2 (full + coarse)", got)
	}
	if tb, th := s.Registry().Counter("table_builds").Value(), s.Registry().Counter("table_hits").Value(); tb != 2 || th != 0 {
		t.Fatalf("builds/hits = %d/%d, want 2/0 (auto builds and reads no table)", tb, th)
	}
}

// TestTableRegistryEvictsLRU pins the bounded-registry contract: capacity
// 2, three shapes, oldest evicted, re-request rebuilds.
func TestTableRegistryEvictsLRU(t *testing.T) {
	s, ts := newTestServer(t, Config{TableCapacity: 2})
	shapes := []op.MatMul{
		{Name: "a", M: 10, K: 10, L: 10},
		{Name: "b", M: 12, K: 10, L: 10},
		{Name: "c", M: 14, K: 10, L: 10},
	}
	for _, mm := range shapes {
		if code, raw := post(t, ts, "/v1/search", searchBody(mm, 1024, "exhaustive"), nil); code != http.StatusOK {
			t.Fatalf("%v: status %d: %s", mm, code, raw)
		}
	}
	if got := s.tables.len(); got != 2 {
		t.Fatalf("resident = %d, want 2 after eviction", got)
	}
	if ev := s.Registry().Counter("table_evictions").Value(); ev != 1 {
		t.Fatalf("table_evictions = %d, want 1", ev)
	}
	if g := s.Registry().Gauge("tables_resident"); g.Value() != 2 || g.High() != 2 {
		t.Fatalf("tables_resident gauge = %d (high %d), want 2/2", g.Value(), g.High())
	}
	// Shape "a" was least recently used and is gone; requesting it again
	// rebuilds (4 builds total) and answers identically.
	want, err := search.ReferenceExhaustive(shapes[0], 1024)
	if err != nil {
		t.Fatal(err)
	}
	var resp searchResponse
	if code, raw := post(t, ts, "/v1/search", searchBody(shapes[0], 1024, "exhaustive"), &resp); code != http.StatusOK {
		t.Fatalf("rebuild: status %d: %s", code, raw)
	}
	if resp.Dataflow.MemoryAccess != want.Access.Total {
		t.Fatalf("rebuilt table MA %d != reference %d", resp.Dataflow.MemoryAccess, want.Access.Total)
	}
	if tb := s.Registry().Counter("table_builds").Value(); tb != 4 {
		t.Fatalf("table_builds = %d, want 4 (3 shapes + 1 rebuild after eviction)", tb)
	}
}

// TestTableBuildErrorRetries: an injected cost-model panic fails the first
// build (degraded answer, error counted), but the slot is discarded, so the
// next request rebuilds cleanly instead of pinning the transient fault.
func TestTableBuildErrorRetries(t *testing.T) {
	faultinject.Activate(faultinject.New(1,
		faultinject.Plan{Site: search.SiteEval, Mode: faultinject.ModePanic, Times: 1}))
	t.Cleanup(faultinject.Deactivate)

	s, ts := newTestServer(t, Config{})
	body := searchBody(refOp, 4096, "exhaustive")
	var first searchResponse
	if code, raw := post(t, ts, "/v1/search", body, &first); code != http.StatusOK {
		t.Fatalf("first: status %d: %s", code, raw)
	}
	if !first.Degraded || first.DegradedReason != "engine_failure" {
		t.Fatalf("first response not degraded by the build failure: %+v", first)
	}
	if be := s.Registry().Counter("table_build_errors").Value(); be != 1 {
		t.Fatalf("table_build_errors = %d, want 1", be)
	}
	if got := s.tables.len(); got != 0 {
		t.Fatalf("failed build left %d tables resident", got)
	}

	want, err := search.ReferenceExhaustive(refOp, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var second searchResponse
	if code, raw := post(t, ts, "/v1/search", body, &second); code != http.StatusOK {
		t.Fatalf("second: status %d: %s", code, raw)
	}
	if second.Degraded || second.Dataflow.MemoryAccess != want.Access.Total {
		t.Fatalf("retry after transient fault not clean: %+v", second)
	}
	if got := s.tables.len(); got != 1 {
		t.Fatalf("clean rebuild left %d tables resident, want 1", got)
	}
}

// TestDisableTablesRestoresScan: with the fast path off, repeated identical
// requests each run the per-request scan, pricing every visit.
func TestDisableTablesRestoresScan(t *testing.T) {
	s, ts := newTestServer(t, Config{DisableTables: true})
	body := searchBody(op.MatMul{Name: "scan", M: 24, K: 20, L: 22}, 1024, "exhaustive")
	for i := 0; i < 2; i++ {
		var resp searchResponse
		if code, raw := post(t, ts, "/v1/search", body, &resp); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, raw)
		}
		if resp.Evaluations == 0 || resp.CacheHits != 0 {
			t.Fatalf("request %d: %d evals + %d table hits, want a full scan", i, resp.Evaluations, resp.CacheHits)
		}
	}
	if tb := s.Registry().Counter("table_builds").Value(); tb != 0 {
		t.Fatalf("table_builds = %d with tables disabled", tb)
	}
}

// TestSearchWorkersClamped sends a client-sized worker count far beyond the
// host's GOMAXPROCS down the scan path: the answer must match the reference
// and the request must not allocate a scan block per requested worker.
func TestSearchWorkersClamped(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableTables: true})
	mm := op.MatMul{Name: "workers", M: 24, K: 20, L: 24}
	want, err := search.ReferenceCoarse(mm, 512)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"op":{"m":%d,"k":%d,"l":%d},"buffer":512,"engine":"coarse","workers":%d}`,
		mm.M, mm.K, mm.L, 1<<20)
	var resp searchResponse
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, raw := post(t, ts, "/v1/search", body, &resp)
	runtime.ReadMemStats(&after)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Dataflow.MemoryAccess != want.Access.Total || resp.Dataflow.TM != want.Dataflow.Tiling.TM ||
		resp.Dataflow.TK != want.Dataflow.Tiling.TK || resp.Dataflow.TL != want.Dataflow.Tiling.TL ||
		resp.Evaluations != want.Evaluations {
		t.Fatalf("answer %+v (%d evals) != reference %v (%d evals)",
			resp.Dataflow, resp.Evaluations, want.Dataflow, want.Evaluations)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
		t.Fatalf("request allocated %d bytes, want ≤ 16 MiB", n)
	}
}

// TestSearchHugeExtentIsInvalidRequest pins the typed rejection of extents
// beyond the batch kernel's int32 tile range: 400 invalid_request at once on
// every engine that prices through the kernel, never a degraded fallback.
func TestSearchHugeExtentIsInvalidRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mm := op.MatMul{Name: "huge", M: 3_000_000_000, K: 2, L: 2}
	for _, engine := range []string{"auto", "exhaustive", "coarse"} {
		start := time.Now()
		code, raw := post(t, ts, "/v1/search", searchBody(mm, 1<<40, engine), nil)
		if code != http.StatusBadRequest || errCode(t, raw) != api.CodeInvalidRequest {
			t.Fatalf("%s: status %d: %s, want 400 invalid_request", engine, code, raw)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Errorf("%s: rejection took %v", engine, el)
		}
	}
}

// TestSearchGeneticServesHugeExtent: the GA prices through the kernel's
// scalar entry, which takes int64 tiles, so the shape the Block-based
// engines reject is answered by the GA itself, not a degraded fallback.
func TestSearchGeneticServesHugeExtent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mm := op.MatMul{Name: "huge", M: 3_000_000_000, K: 2, L: 2}
	const buffer = 1 << 40
	var resp searchResponse
	if code, raw := post(t, ts, "/v1/search", searchBody(mm, buffer, "genetic"), &resp); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Degraded || resp.Method != "genetic" {
		t.Fatalf("method %q degraded %v, want an undegraded genetic answer", resp.Method, resp.Degraded)
	}
	if resp.Dataflow.MemoryAccess < mm.IdealMA() {
		t.Fatalf("MA %d below the ideal %d", resp.Dataflow.MemoryAccess, mm.IdealMA())
	}
}

// TestTableCapRoutesLargeShapesToScan: a shape above TableMaxCandidates
// never materializes a table and is answered by the scan engines.
func TestTableCapRoutesLargeShapesToScan(t *testing.T) {
	s, ts := newTestServer(t, Config{TableMaxCandidates: 1000})
	mm := op.MatMul{Name: "big", M: 24, K: 20, L: 22} // 63,360 full-grid candidates
	want, err := search.ReferenceExhaustive(mm, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var resp searchResponse
	if code, raw := post(t, ts, "/v1/search", searchBody(mm, 1024, "exhaustive"), &resp); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Dataflow.MemoryAccess != want.Access.Total {
		t.Fatalf("scan fallback MA %d != reference %d", resp.Dataflow.MemoryAccess, want.Access.Total)
	}
	if tb := s.Registry().Counter("table_builds").Value(); tb != 0 {
		t.Fatalf("table_builds = %d, want 0 above the candidate cap", tb)
	}
}
