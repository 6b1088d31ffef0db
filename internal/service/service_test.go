package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fusecu/internal/faultinject"
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
	if resp.Evaluations+resp.CacheHits == 0 {
		t.Fatal("search reported no candidate visits")
	}
}

// TestSearchEndpointCacheHitsOnRepeat checks the cache_hits field: a repeat
// request for the same shape is answered from the shared candidate table,
// which reports every lattice visit it served as a cache hit and prices
// nothing, and the table is built once.
func TestSearchEndpointCacheHitsOnRepeat(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"op":{"name":"rep","m":48,"k":32,"l":40},"buffer":4096,"engine":"exhaustive"}`
	var first, second searchResponse
	if code, raw := post(t, ts, "/v1/search", body, &first); code != http.StatusOK {
		t.Fatalf("first: status %d: %s", code, raw)
	}
	if code, raw := post(t, ts, "/v1/search", body, &second); code != http.StatusOK {
		t.Fatalf("second: status %d: %s", code, raw)
	}
	if second.CacheHits == 0 || second.Evaluations != 0 || second.CacheHits != first.CacheHits+first.Evaluations {
		t.Fatalf("repeat request visits %d evals + %d hits, first %d + %d",
			second.Evaluations, second.CacheHits, first.Evaluations, first.CacheHits)
	}
	if first.Dataflow != second.Dataflow {
		t.Fatalf("repeat changed the result: %+v vs %+v", first.Dataflow, second.Dataflow)
	}
	if th := s.Registry().Counter("table_hits").Value(); th == 0 {
		t.Fatal("repeat request did not hit the table registry")
	}
	if tb := s.Registry().Counter("table_builds").Value(); tb != 1 {
		t.Fatalf("table_builds = %d, want 1 (one shape, one build)", tb)
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
	// 192³ exhaustive takes far longer than 20ms.
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
	// The slot-holding search is big enough to outlive the second request
	// and is reaped by the server deadline so the test stays fast.
	s, ts := newTestServer(t, Config{MaxInFlight: 1, RetryAfter: 7, DefaultTimeout: 500 * time.Millisecond})
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
// verifies the worker pool actually stops: the visit count of the
// per-candidate fault-injection site (armed with no plans, so it only
// counts) must settle shortly after the disconnect instead of running the
// full scan.
func TestSearchCancellationStopsWorkers(t *testing.T) {
	in := faultinject.New(1)
	faultinject.Activate(in)
	t.Cleanup(faultinject.Deactivate)
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
	// The handler returning within seconds is itself the proof the pool
	// stopped: an uncancelled 224³ exhaustive scan runs far longer.
	drainDeadline := time.Now().Add(5 * time.Second)
	for s.Registry().Gauge("http_inflight").Value() != 0 {
		if time.Now().After(drainDeadline) {
			t.Fatal("in-flight gauge never drained after cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	// And the evaluation counter must settle — no orphaned workers still
	// burning the cost model after the request is gone.
	before := visits()
	time.Sleep(300 * time.Millisecond)
	if after := visits(); after != before {
		t.Fatalf("evaluations still climbing after drain: %d → %d", before, after)
	}
}

// TestConcurrentSearchLoad drives 96 concurrent /v1/search requests through
// a 64-slot gate and checks: every admitted request returns the
// reference-identical optimum, the in-flight high-water mark actually
// reached the configured ceiling, and one shared table served repeats.
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
			body := fmt.Sprintf(`{"op":{"name":"load","m":%d,"k":%d,"l":%d},"buffer":4096,"engine":"exhaustive","workers":1}`, loadOp.M, loadOp.K, loadOp.L)
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
	// Repeated identical operators share one candidate table: exactly one
	// build, every other admitted request a registry hit.
	if tb, th := s.Registry().Counter("table_builds").Value(), s.Registry().Counter("table_hits").Value(); tb != 1 || th != int64(ok200-1) {
		t.Fatalf("table sharing broke: %d builds, %d hits for %d accepted requests",
			tb, th, ok200)
	}
	// A 429 is only issued while all 64 slots are occupied, so any shed
	// request proves the server sustained its full admission ceiling.
	high := s.Registry().Gauge("http_inflight").High()
	if ok429 > 0 && high < 64 {
		t.Fatalf("saw %d rejections but in-flight high-water is only %d", ok429, high)
	}
	t.Logf("load: %d ok, %d shed, in-flight high-water %d", ok200, ok429, high)
}
