package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fusecu/internal/core"
	"fusecu/internal/faultinject"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

// --- panic isolation --------------------------------------------------------

func TestPanicIsolationMapsToInternalError(t *testing.T) {
	in := faultinject.New(1, faultinject.Plan{Site: "service.optimize", Mode: faultinject.ModePanic, Times: 1})
	s, ts := newTestServer(t, Config{Injector: in})

	body := `{"op":{"m":64,"k":64,"l":64},"buffer":4096}`
	code, raw := post(t, ts, "/v1/optimize", body, nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (%s)", code, raw)
	}
	if got := errCode(t, raw); got != "internal_error" {
		t.Fatalf("error code = %q, want internal_error", got)
	}
	if got := s.Registry().Counter("panics_recovered").Value(); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
	// The process kept serving: the very next request succeeds.
	if code, raw := post(t, ts, "/v1/optimize", body, nil); code != http.StatusOK {
		t.Fatalf("post-panic request: status %d (%s)", code, raw)
	}
}

func TestInjectedErrorMapsToInternalError(t *testing.T) {
	in := faultinject.New(1, faultinject.Plan{Site: "service.plan", Mode: faultinject.ModeError, Times: 1})
	s, ts := newTestServer(t, Config{Injector: in})
	code, raw := post(t, ts, "/v1/plan",
		`{"name":"p","ops":[{"m":8,"k":8,"l":8}],"buffer":64}`, nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (%s)", code, raw)
	}
	if got := errCode(t, raw); got != "internal_error" {
		t.Fatalf("error code = %q, want internal_error", got)
	}
	if got := s.Registry().Counter("panics_recovered").Value(); got != 0 {
		t.Fatalf("error injection recorded a panic: %d", got)
	}
}

// TestChaosPanicWaveKeepsServing is the headline chaos test: 1 of every 8
// requests in a 96-client wave panics inside the service, and the server
// must (a) never die, (b) answer exactly the injected number of 500
// internal_error envelopes, and (c) answer every clean request with the
// reference engine's bit-identical optimum. Counter-based injection makes
// the split exact regardless of goroutine interleaving; runs under -race via
// make test-race-service.
func TestChaosPanicWaveKeepsServing(t *testing.T) {
	const clients, every = 96, 8
	in := faultinject.New(1, faultinject.Plan{Site: "service.search", Mode: faultinject.ModePanic, Every: every})
	s, ts := newTestServer(t, Config{MaxInFlight: clients, Injector: in})

	want, err := search.ReferenceExhaustive(loadOp, 4096)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"op":{"name":"load","m":%d,"k":%d,"l":%d},"buffer":4096,"engine":"exhaustive"}`,
		loadOp.M, loadOp.K, loadOp.L)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok200, fail500, other int
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("client %d: transport error (connection dropped?): %v", i, err)
				return
			}
			raw := mustReadAll(t, resp)
			if cerr := resp.Body.Close(); cerr != nil {
				t.Errorf("client %d close: %v", i, cerr)
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
				if sr.Degraded || sr.Dataflow.MemoryAccess != want.Access.Total ||
					sr.Dataflow.TM != want.Dataflow.Tiling.TM ||
					sr.Dataflow.TK != want.Dataflow.Tiling.TK ||
					sr.Dataflow.TL != want.Dataflow.Tiling.TL {
					t.Errorf("client %d: clean request diverged from reference: %+v", i, sr)
				}
			case http.StatusInternalServerError:
				fail500++
				var env errorEnvelope
				if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "internal_error" {
					t.Errorf("client %d: 500 with wrong envelope: %s", i, raw)
				}
			default:
				other++
				t.Errorf("client %d: unexpected status %d: %s", i, resp.StatusCode, raw)
			}
		}(i)
	}
	wg.Wait()

	wantPanics := clients / every
	if fail500 != wantPanics || ok200 != clients-wantPanics || other != 0 {
		t.Fatalf("wave outcome: %d ok, %d failed, %d other; want %d/%d/0",
			ok200, fail500, other, clients-wantPanics, wantPanics)
	}
	if got := s.Registry().Counter("panics_recovered").Value(); got != int64(wantPanics) {
		t.Fatalf("panics_recovered = %d, want %d", got, wantPanics)
	}
	if got := in.Fires("service.search"); got != int64(wantPanics) {
		t.Fatalf("injector fired %d times, want %d", got, wantPanics)
	}
}

// --- graceful degradation ---------------------------------------------------

// degradeOp is the deadline-pressure shape: under slowSearch's 5ms per
// evaluation its 127-evaluation walk outlives every test deadline below.
var degradeOp = op.MatMul{Name: "big", M: 224, K: 224, L: 224}

func TestDeadlinePressureDegradesToPrinciple(t *testing.T) {
	s, ts := newTestServer(t, Config{DefaultTimeout: 150 * time.Millisecond})
	slowSearch(t, 5*time.Millisecond)
	const buffer = 1 << 20
	want, err := core.Optimize(degradeOp, buffer)
	if err != nil {
		t.Fatal(err)
	}
	var resp searchResponse
	code, raw := post(t, ts, "/v1/search",
		fmt.Sprintf(`{"op":{"name":"big","m":224,"k":224,"l":224},"buffer":%d,"engine":"exhaustive"}`, buffer), &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200 degraded (%s)", code, raw)
	}
	if !resp.Degraded || resp.DegradedReason != "deadline" || resp.Method != "principle" {
		t.Fatalf("response not marked degraded-by-deadline: %+v", resp)
	}
	if resp.Dataflow.MemoryAccess != want.Access.Total {
		t.Fatalf("degraded MA %d != principle optimum %d", resp.Dataflow.MemoryAccess, want.Access.Total)
	}
	if got := s.Registry().Counter("degraded_responses").Value(); got != 1 {
		t.Fatalf("degraded_responses = %d, want 1", got)
	}
}

// TestDegradedConformance sweeps operators and buffers and asserts the
// degraded answer's contract: always feasible (footprint within the buffer)
// and exactly the principle optimum — never worse. Every walk here prices
// at least 77 candidates, so at 5ms each none finishes inside 80ms.
func TestDegradedConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultTimeout: 80 * time.Millisecond})
	slowSearch(t, 5*time.Millisecond)
	cases := []struct {
		mm     op.MatMul
		buffer int64
	}{
		{op.MatMul{Name: "cube160", M: 160, K: 160, L: 160}, 16 << 10},
		{op.MatMul{Name: "cube192", M: 192, K: 192, L: 192}, 64 << 10},
		{op.MatMul{Name: "wide", M: 256, K: 64, L: 256}, 8 << 10},
		{op.MatMul{Name: "tall", M: 512, K: 96, L: 128}, 128 << 10},
	}
	for _, tc := range cases {
		t.Run(tc.mm.Name, func(t *testing.T) {
			want, err := core.Optimize(tc.mm, tc.buffer)
			if err != nil {
				t.Fatal(err)
			}
			var resp searchResponse
			body := fmt.Sprintf(`{"op":{"name":%q,"m":%d,"k":%d,"l":%d},"buffer":%d,"engine":"exhaustive"}`,
				tc.mm.Name, tc.mm.M, tc.mm.K, tc.mm.L, tc.buffer)
			code, raw := post(t, ts, "/v1/search", body, &resp)
			if code != http.StatusOK {
				t.Fatalf("status = %d (%s)", code, raw)
			}
			if !resp.Degraded {
				t.Fatalf("walk unexpectedly finished; response not degraded: %+v", resp)
			}
			tm, tk, tl := int64(resp.Dataflow.TM), int64(resp.Dataflow.TK), int64(resp.Dataflow.TL)
			if fp := tm*tk + tk*tl + tm*tl; fp > tc.buffer {
				t.Fatalf("degraded tiling infeasible: footprint %d > buffer %d", fp, tc.buffer)
			}
			if resp.Dataflow.MemoryAccess != want.Access.Total {
				t.Fatalf("degraded MA %d != principle optimum %d", resp.Dataflow.MemoryAccess, want.Access.Total)
			}
		})
	}
}

// TestEngineFailureDegrades: a contained engine panic (injected at the
// search-eval site) also triggers the principle fallback, so an internal
// search bug costs accuracy of the baseline comparison, not availability.
func TestEngineFailureDegrades(t *testing.T) {
	faultinject.Activate(faultinject.New(1,
		faultinject.Plan{Site: search.SiteEval, Mode: faultinject.ModePanic, Times: 1}))
	t.Cleanup(faultinject.Deactivate)

	s, ts := newTestServer(t, Config{})
	want, err := core.Optimize(refOp, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var resp searchResponse
	code, raw := post(t, ts, "/v1/search",
		`{"op":{"name":"ref","m":48,"k":32,"l":40},"buffer":4096,"engine":"exhaustive"}`, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200 degraded (%s)", code, raw)
	}
	if !resp.Degraded || resp.DegradedReason != "engine_failure" {
		t.Fatalf("response not marked degraded-by-engine-failure: %+v", resp)
	}
	if resp.Dataflow.MemoryAccess != want.Access.Total {
		t.Fatalf("degraded MA %d != principle optimum %d", resp.Dataflow.MemoryAccess, want.Access.Total)
	}
	if got := s.Registry().Counter("panics_recovered").Value(); got != 0 {
		t.Fatalf("engine panic leaked to the middleware: panics_recovered = %d", got)
	}
}

func TestDisableDegradeRestores504(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultTimeout: 60 * time.Millisecond, DisableDegrade: true})
	slowSearch(t, 5*time.Millisecond)
	code, raw := post(t, ts, "/v1/search",
		`{"op":{"m":224,"k":224,"l":224},"buffer":1048576,"engine":"exhaustive"}`, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 with degradation disabled (%s)", code, raw)
	}
}

// --- readiness and drain ----------------------------------------------------

func getStatus(t *testing.T, ts string, path string) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(ts + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Errorf("close: %v", cerr)
		}
	}()
	return resp.StatusCode, resp.Header
}

func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if code, _ := getStatus(t, ts.URL, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("fresh server readyz = %d, want 503", code)
	}
	s.SetReady(true)
	if code, _ := getStatus(t, ts.URL, "/readyz"); code != http.StatusOK {
		t.Fatalf("ready server readyz = %d, want 200", code)
	}
	s.BeginDrain()
	if code, _ := getStatus(t, ts.URL, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server readyz = %d, want 503", code)
	}
	// Liveness is independent of readiness throughout.
	if code, _ := getStatus(t, ts.URL, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz went down during drain")
	}
}

func TestDrainRejectsNewRequestsFast(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.SetReady(true)
	s.BeginDrain()
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		strings.NewReader(`{"op":{"m":8,"k":8,"l":8},"buffer":64}`))
	if err != nil {
		t.Fatal(err)
	}
	raw := mustReadAll(t, resp)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", resp.StatusCode, raw)
	}
	if got := errCode(t, raw); got != "draining" {
		t.Fatalf("error code = %q, want draining", got)
	}
	if resp.Close != true && !strings.EqualFold(resp.Header.Get("Connection"), "close") {
		t.Fatalf("drain rejection did not ask to close the connection (headers %v)", resp.Header)
	}
	// Probes and metrics still answer so operators can watch the drain.
	if code, _ := getStatus(t, ts.URL, "/metrics"); code != http.StatusOK {
		t.Fatal("metrics went down during drain")
	}
}

// --- per-code counters ------------------------------------------------------

func TestPerCodeResponseCounters(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/optimize", `{"op":{"m":64,"k":64,"l":64},"buffer":4096}`, nil) // 200
	post(t, ts, "/v1/optimize", `{"op":`, nil)                                      // 400
	post(t, ts, "/v1/optimize", `{"op":{"m":8,"k":8,"l":8},"buffer":1}`, nil)       // 422
	s.BeginDrain()
	post(t, ts, "/v1/optimize", `{"op":{"m":8,"k":8,"l":8},"buffer":64}`, nil) // 503

	for code, want := range map[int]int64{200: 1, 400: 1, 422: 1, 503: 1} {
		if got := s.Registry().Counter(fmt.Sprintf("http_responses_total:%d", code)).Value(); got != want {
			t.Errorf("http_responses_total:%d = %d, want %d", code, got, want)
		}
	}
	// The aggregate counters render on /metrics alongside the per-endpoint ones.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := mustReadAll(t, resp)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	for _, want := range []string{"http_responses_total:200 1", "http_responses_total:503 1"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
