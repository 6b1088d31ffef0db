package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fusecu/api"
	"fusecu/internal/cost"
	"fusecu/internal/faultinject"
	"fusecu/internal/invariant"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// post sends a JSON body and decodes the response into out (which may be
// nil). It returns the status code and raw body.
func post(t *testing.T, ts *httptest.Server, path, body string, out any) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("close body: %v", err)
		}
	}()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s response %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode, raw
}

// errCode extracts the error envelope code from a non-200 body.
func errCode(t *testing.T, raw []byte) string {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("decode error envelope %q: %v", raw, err)
	}
	return env.Error.Code
}

// do sends a bodyless request (GET/DELETE) and decodes a 200 response into
// out (which may be nil). It returns the status code and raw body.
func do(t *testing.T, ts *httptest.Server, method, path string, out any) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("close body: %v", err)
		}
	}()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s response %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode, raw
}

// searchBody builds a /v1/search request body for mm.
func searchBody(mm op.MatMul, buffer int64, engine string) string {
	return fmt.Sprintf(`{"op":{"name":%q,"m":%d,"k":%d,"l":%d},"buffer":%d,"engine":%q}`,
		mm.Name, mm.M, mm.K, mm.L, buffer, engine)
}

// slowSearch arms latency on every cost evaluation (search.SiteEval) for
// the rest of the test. The walks answer in microseconds, so this is what
// keeps a search in flight long enough to meet a deadline, hold an
// admission slot, or be canceled mid-walk: a request then takes about
// delay times its evaluation count (127 for 224³ at 1 MiB).
func slowSearch(t *testing.T, delay time.Duration) *faultinject.Injector {
	t.Helper()
	in := faultinject.New(1, faultinject.Plan{Site: search.SiteEval, Mode: faultinject.ModeLatency, Delay: delay})
	faultinject.Activate(in)
	t.Cleanup(faultinject.Deactivate)
	return in
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp optimizeResponse
	code, raw := post(t, ts, "/v1/optimize",
		`{"op":{"name":"qk","m":512,"k":64,"l":512},"buffer":65536}`, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Dataflow.MemoryAccess <= 0 || resp.Dataflow.TM <= 0 {
		t.Fatalf("degenerate response: %+v", resp)
	}
	if resp.Regime == "" || resp.Dataflow.NRA == "" {
		t.Fatalf("missing classification: %+v", resp)
	}
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp planResponse
	code, raw := post(t, ts, "/v1/plan",
		`{"name":"attn","ops":[{"m":512,"k":64,"l":512},{"m":512,"k":512,"l":64}],"buffer":65536}`, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if len(resp.Groups) == 0 || len(resp.Decisions) != 1 {
		t.Fatalf("unexpected plan shape: %+v", resp)
	}
	if resp.TotalMA <= 0 || resp.TotalMA > resp.UnfusedMA {
		t.Fatalf("fusion should not increase traffic: %+v", resp)
	}
}

// refOp is the operator shared by the reference-comparison tests; small
// enough for a fast full exhaustive scan even under the race detector on a
// single-core runner.
var refOp = op.MatMul{Name: "ref", M: 48, K: 32, L: 40}

// loadOp is the per-client operator of the concurrent-load test: big enough
// that 96 clients overlap, small enough that the whole wave finishes within
// every request's deadline on one core.
var loadOp = op.MatMul{Name: "load", M: 32, K: 24, L: 28}

func TestSearchEndpointMatchesReference(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	want, err := search.ReferenceExhaustive(refOp, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var resp searchResponse
	code, raw := post(t, ts, "/v1/search",
		`{"op":{"name":"ref","m":48,"k":32,"l":40},"buffer":4096,"engine":"exhaustive","workers":4}`, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Dataflow.MemoryAccess != want.Access.Total {
		t.Fatalf("served search MA %d != reference %d", resp.Dataflow.MemoryAccess, want.Access.Total)
	}
	if got := fmt.Sprintf("%d/%d/%d", resp.Dataflow.TM, resp.Dataflow.TK, resp.Dataflow.TL); got !=
		fmt.Sprintf("%d/%d/%d", want.Dataflow.Tiling.TM, want.Dataflow.Tiling.TK, want.Dataflow.Tiling.TL) {
		t.Fatalf("served tiling %s != reference %v", got, want.Dataflow.Tiling)
	}
	if resp.Method != "exhaustive" || resp.Evaluations == 0 || resp.CacheHits != 0 {
		t.Fatalf("method %q, %d evaluations, %d cache hits; want the walk's exhaustive answer",
			resp.Method, resp.Evaluations, resp.CacheHits)
	}
}

// TestSearchEndpointCacheHitsOnRepeat checks the cache_hits field on a
// repeat request: the server keeps no per-shape state, so the repeat is
// walked afresh — the identical response, the same evaluation count, and
// cache_hits 0 both times.
func TestSearchEndpointCacheHitsOnRepeat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, engine := range []string{"auto", "exhaustive", "coarse"} {
		body := searchBody(op.MatMul{Name: "rep", M: 48, K: 32, L: 40}, 4096, engine)
		var first, second searchResponse
		if code, raw := post(t, ts, "/v1/search", body, &first); code != http.StatusOK {
			t.Fatalf("%s first: status %d: %s", engine, code, raw)
		}
		if code, raw := post(t, ts, "/v1/search", body, &second); code != http.StatusOK {
			t.Fatalf("%s second: status %d: %s", engine, code, raw)
		}
		if first.CacheHits != 0 || first.Evaluations == 0 {
			t.Fatalf("%s: %d evals + %d cache hits, want a walk with no cache", engine, first.Evaluations, first.CacheHits)
		}
		if second != first {
			t.Fatalf("%s: repeat changed the response: %+v vs %+v", engine, second, first)
		}
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestSearchBitIdentityAcrossEngines drives every walk-served engine
// through the endpoint and checks the answers against the frozen
// reference engines, tie-winner included: exhaustive and auto against
// ReferenceExhaustive, coarse against ReferenceCoarse. The reference's
// 20M-candidate scan of the big shape's full lattice takes seconds, so
// that one case is skipped under -race or fusecuchecks.
func TestSearchBitIdentityAcrossEngines(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	small := op.MatMul{Name: "tbl", M: 36, K: 28, L: 30}
	big := op.MatMul{Name: "big", M: 160, K: 150, L: 140}
	cases := []struct {
		mm     op.MatMul
		buffer int64
		engine string
		method string
		ref    func(op.MatMul, int64) (search.Result, error)
		slow   bool
	}{
		{small, 2048, "exhaustive", "exhaustive", search.ReferenceExhaustive, false},
		{small, 2048, "auto", "analytic", search.ReferenceExhaustive, false},
		{small, 2048, "coarse", "exhaustive-coarse", search.ReferenceCoarse, false},
		{big, 2048, "exhaustive", "exhaustive", search.ReferenceExhaustive, true},
		{big, 2048, "coarse", "exhaustive-coarse", search.ReferenceCoarse, false},
	}
	for _, tc := range cases {
		if tc.slow && (raceEnabled || invariant.Enabled) {
			t.Logf("%v %s: skipped, the frozen reference is too slow under -race or fusecuchecks", tc.mm, tc.engine)
			continue
		}
		want, err := tc.ref(tc.mm, tc.buffer)
		if err != nil {
			t.Fatal(err)
		}
		var resp searchResponse
		code, raw := post(t, ts, "/v1/search", searchBody(tc.mm, tc.buffer, tc.engine), &resp)
		if code != http.StatusOK {
			t.Fatalf("%v %s: status %d: %s", tc.mm, tc.engine, code, raw)
		}
		wantDF := dataflowOf(want.Dataflow, want.Access.NRA, want.Access.Total, want.Access.PerTensor)
		if resp.Dataflow != wantDF || resp.Method != tc.method || resp.Degraded {
			t.Fatalf("%v %s: answer %s %+v != reference %+v", tc.mm, tc.engine, resp.Method, resp.Dataflow, wantDF)
		}
	}
}

// TestSearchWorkersIgnored: the workers field is still accepted but sizes
// nothing — a client-sized count far beyond the host's cores returns the
// same answer as the default, without allocating per requested worker.
func TestSearchWorkersIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mm := op.MatMul{Name: "workers", M: 24, K: 20, L: 24}
	var plain searchResponse
	if code, raw := post(t, ts, "/v1/search", searchBody(mm, 512, "coarse"), &plain); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	body := fmt.Sprintf(`{"op":{"name":"workers","m":%d,"k":%d,"l":%d},"buffer":512,"engine":"coarse","workers":%d}`,
		mm.M, mm.K, mm.L, 1<<20)
	var resp searchResponse
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, raw := post(t, ts, "/v1/search", body, &resp)
	runtime.ReadMemStats(&after)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp != plain {
		t.Fatalf("workers changed the answer: %+v vs %+v", resp, plain)
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
// scalar entry, which takes int64 tiles, so the shape the walks reject is
// answered by the GA itself, not a degraded fallback.
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

// TestVersionEndpoint pins /v1/version: always on, GET only, reporting the
// API and cost-model versions and the retired table-format version (1).
func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var v api.VersionResponse
	if code, raw := do(t, ts, http.MethodGet, "/v1/version", &v); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	want := api.VersionResponse{
		APIVersion:         api.Version,
		CostModelVersion:   cost.ModelVersion,
		TableFormatVersion: 1,
	}
	if v != want {
		t.Fatalf("version = %+v, want %+v", v, want)
	}
	if code, raw := do(t, ts, http.MethodPost, "/v1/version", nil); code != http.StatusMethodNotAllowed ||
		errCode(t, raw) != api.CodeMethodNotAllowed {
		t.Fatalf("POST /v1/version: status %d body %s", code, raw)
	}
	// The retired table-admin routes are not served.
	if code, _ := do(t, ts, http.MethodGet, "/v1/tables", nil); code != http.StatusNotFound {
		t.Fatalf("GET /v1/tables: status %d, want 404", code)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp evaluateResponse
	code, raw := post(t, ts, "/v1/evaluate",
		`{"model":"BERT","platforms":["FuseCU","TPUv4i"]}`, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("want 2 platform results, got %+v", resp)
	}
	var fuse, tpu int64
	for _, r := range resp.Results {
		if r.MemoryAccess <= 0 || r.Cycles <= 0 {
			t.Fatalf("degenerate platform result: %+v", r)
		}
		switch r.Platform {
		case "FuseCU":
			fuse = r.MemoryAccess
		case "TPUv4i":
			tpu = r.MemoryAccess
		}
	}
	if fuse == 0 || tpu == 0 || fuse >= tpu {
		t.Fatalf("FuseCU should beat TPUv4i on traffic: FuseCU=%d TPUv4i=%d", fuse, tpu)
	}
}

func TestErrorModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"malformed json", "/v1/optimize", `{"op":`, http.StatusBadRequest, "invalid_request"},
		{"unknown field", "/v1/optimize", `{"op":{"m":8,"k":8,"l":8},"buffer":64,"bogus":1}`, http.StatusBadRequest, "invalid_request"},
		{"trailing garbage", "/v1/optimize", `{"op":{"m":8,"k":8,"l":8},"buffer":64} {}`, http.StatusBadRequest, "invalid_request"},
		{"invalid operator", "/v1/optimize", `{"op":{"m":0,"k":8,"l":8},"buffer":64}`, http.StatusBadRequest, "invalid_request"},
		{"overflowing operator", "/v1/optimize", `{"op":{"m":2097152,"k":2097152,"l":2097152},"buffer":1048576}`, http.StatusBadRequest, "invalid_request"},
		{"overflowing chain", "/v1/plan", `{"name":"x","ops":[{"m":16777216,"k":16777216,"l":16777216}],"buffer":1048576}`, http.StatusBadRequest, "invalid_request"},
		{"overflowing chain sum", "/v1/plan", `{"name":"x","ops":[{"m":1400000,"k":1400000,"l":1400000},{"m":1400000,"k":1400000,"l":1400000}],"buffer":3}`, http.StatusBadRequest, "invalid_request"},
		{"overflowing search", "/v1/search", `{"op":{"m":1572864,"k":2097152,"l":2097152},"buffer":1048576,"engine":"exhaustive"}`, http.StatusBadRequest, "invalid_request"},
		{"overflowing search auto", "/v1/search", `{"op":{"m":2097152,"k":2097152,"l":2097152},"buffer":1048576}`, http.StatusBadRequest, "invalid_request"},
		{"buffer too small", "/v1/optimize", `{"op":{"m":8,"k":8,"l":8},"buffer":1}`, http.StatusUnprocessableEntity, "buffer_too_small"},
		{"broken chain", "/v1/plan", `{"name":"x","ops":[{"m":8,"k":8,"l":8},{"m":9,"k":9,"l":9}],"buffer":64}`, http.StatusBadRequest, "invalid_request"},
		{"unknown engine", "/v1/search", `{"op":{"m":8,"k":8,"l":8},"buffer":64,"engine":"oracle"}`, http.StatusBadRequest, "invalid_request"},
		{"search buffer too small", "/v1/search", `{"op":{"m":8,"k":8,"l":8},"buffer":1}`, http.StatusUnprocessableEntity, "buffer_too_small"},
		{"unknown model", "/v1/evaluate", `{"model":"GPT-9"}`, http.StatusNotFound, "not_found"},
		{"unknown platform", "/v1/evaluate", `{"model":"BERT","platforms":["Cerebras"]}`, http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := post(t, ts, tc.path, tc.body, nil)
			if code != tc.status {
				t.Fatalf("status = %d, want %d (%s)", code, tc.status, raw)
			}
			if got := errCode(t, raw); got != tc.code {
				t.Fatalf("error code = %q, want %q", got, tc.code)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestDeadlineMapsToGatewayTimeout(t *testing.T) {
	// DisableDegrade pins the raw 504 mapping; with degradation on (the
	// default) a deadline-pressured search answers 200 degraded instead —
	// see resilience_test.go.
	_, ts := newTestServer(t, Config{DefaultTimeout: 20 * time.Millisecond, DisableDegrade: true})
	// 121 evaluations at 5ms each take far longer than 20ms.
	slowSearch(t, 5*time.Millisecond)
	code, raw := post(t, ts, "/v1/search",
		`{"op":{"m":192,"k":192,"l":192},"buffer":1048576,"engine":"exhaustive"}`, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", code, raw)
	}
	if got := errCode(t, raw); got != "deadline_exceeded" {
		t.Fatalf("error code = %q, want deadline_exceeded", got)
	}
}

func TestAdmissionGate(t *testing.T) {
	// The slot-holding search is slowed to outlive the second request and
	// is reaped by the server deadline so the test stays fast.
	s, ts := newTestServer(t, Config{MaxInFlight: 1, RetryAfter: 7, DefaultTimeout: 500 * time.Millisecond})
	slowSearch(t, 5*time.Millisecond)
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		post(t, ts, "/v1/search",
			`{"op":{"m":192,"k":192,"l":192},"buffer":1048576,"engine":"exhaustive"}`, nil)
	}()
	// Wait until the slot is actually taken.
	deadline := time.Now().Add(5 * time.Second)
	for s.Registry().Gauge("http_inflight").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		strings.NewReader(`{"op":{"m":8,"k":8,"l":8},"buffer":64}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want 7", ra)
	}
	if got := errCode(t, mustReadAll(t, resp)); got != "overloaded" {
		t.Fatalf("error code = %q, want overloaded", got)
	}
	<-blocked
}

func mustReadAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, raw := post(t, ts, "/v1/optimize", `{"op":{"m":64,"k":64,"l":64},"buffer":4096}`, nil); code != http.StatusOK {
		t.Fatalf("optimize: %d %s", code, raw)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); cerr != nil {
			t.Errorf("close: %v", cerr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		if path == "/metrics" {
			for _, want := range []string{"http_requests_total:optimize:200 1", "http_latency_ms:optimize_count"} {
				if !strings.Contains(string(raw), want) {
					t.Errorf("metrics missing %q:\n%s", want, raw)
				}
			}
		}
	}
}

// TestSearchCancellationStopsWorkers disconnects a client mid-search and
// verifies the walk actually stops: the visit count of the per-evaluation
// fault-injection site (slowed so the walk is still running when the
// client leaves) must settle shortly after the disconnect, short of the
// full walk's evaluation count.
func TestSearchCancellationStopsWorkers(t *testing.T) {
	full, err := search.WalkCtx(context.Background(), op.MatMul{M: 224, K: 224, L: 224}, 1<<20, search.GridFull)
	if err != nil {
		t.Fatal(err)
	}
	in := slowSearch(t, 5*time.Millisecond)
	visits := func() int64 { return in.Visits(search.SiteEval) }
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	body := `{"op":{"m":224,"k":224,"l":224},"buffer":1048576,"engine":"exhaustive"}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/search",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			if cerr := resp.Body.Close(); cerr != nil {
				err = cerr
			}
		}
		done <- err
	}()
	// Let the scan get going, then disconnect.
	deadline := time.Now().Add(5 * time.Second)
	for visits() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("search never started evaluating")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("expected client-side error after cancel")
	}
	// The handler returning within seconds is itself the proof the walk
	// stopped: uncancelled, it would run its full evaluation count.
	drainDeadline := time.Now().Add(5 * time.Second)
	for s.Registry().Gauge("http_inflight").Value() != 0 {
		if time.Now().After(drainDeadline) {
			t.Fatal("in-flight gauge never drained after cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	// And the evaluation counter must settle — nothing still burning the
	// cost model after the request is gone — short of the full walk.
	before := visits()
	time.Sleep(300 * time.Millisecond)
	if after := visits(); after != before {
		t.Fatalf("evaluations still climbing after drain: %d → %d", before, after)
	}
	if before >= full.Evaluations {
		t.Fatalf("walk ran all %d evaluations despite the disconnect", before)
	}
}

// TestConcurrentSearchLoad drives 96 concurrent /v1/search requests through
// a 64-slot gate and checks: every admitted request returns the
// reference-identical optimum, and any shed request proves the in-flight
// high-water mark reached the configured ceiling.
func TestConcurrentSearchLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 64})
	want, err := search.ReferenceExhaustive(loadOp, 4096)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 96
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok200, ok429, bad int
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"op":{"name":"load","m":%d,"k":%d,"l":%d},"buffer":4096,"engine":"exhaustive"}`, loadOp.M, loadOp.K, loadOp.L)
			resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer func() {
				if err := resp.Body.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("client %d read: %v", i, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200++
				var sr searchResponse
				if err := json.Unmarshal(raw, &sr); err != nil {
					t.Errorf("client %d decode: %v", i, err)
					return
				}
				if sr.Dataflow.MemoryAccess != want.Access.Total ||
					sr.Dataflow.TM != want.Dataflow.Tiling.TM ||
					sr.Dataflow.TK != want.Dataflow.Tiling.TK ||
					sr.Dataflow.TL != want.Dataflow.Tiling.TL {
					t.Errorf("client %d diverged from reference: %+v", i, sr.Dataflow)
				}
			case http.StatusTooManyRequests:
				ok429++
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("client %d: 429 without Retry-After", i)
				}
			default:
				bad++
				t.Errorf("client %d: unexpected status %d: %s", i, resp.StatusCode, raw)
			}
		}(i)
	}
	wg.Wait()

	if ok200 == 0 || bad != 0 || ok200+ok429 != clients {
		t.Fatalf("load outcome: %d ok, %d rejected, %d bad", ok200, ok429, bad)
	}
	// A 429 is only issued while all 64 slots are occupied, so any shed
	// request proves the server sustained its full admission ceiling.
	high := s.Registry().Gauge("http_inflight").High()
	if ok429 > 0 && high < 64 {
		t.Fatalf("saw %d rejections but in-flight high-water is only %d", ok429, high)
	}
	t.Logf("load: %d ok, %d shed, in-flight high-water %d", ok200, ok429, high)
}
