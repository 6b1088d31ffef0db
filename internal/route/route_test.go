package route

import (
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

	"fusecu/api"
	"fusecu/internal/cost"
)

// fleetVersion is the triple a well-behaved replica reports.
var fleetVersion = api.VersionResponse{
	APIVersion:         api.Version,
	CostModelVersion:   cost.ModelVersion,
	TableFormatVersion: api.TableFormatVersion,
}

// newBackend spins up a fake replica that identifies itself in every proxied
// response and answers the router's health and version probes.
func newBackend(t *testing.T, name string, version api.VersionResponse) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("/v1/version", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(version)
	})
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"replica": name,
			"path":    r.URL.Path,
			"bytes":   len(body),
		})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func newFleetRouter(t *testing.T, backends ...string) *Router {
	t.Helper()
	r, err := New(Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckBackends(context.Background()); err != nil {
		t.Fatal(err)
	}
	return r
}

// replicaFor sends one search request through the router and reports which
// fake replica answered.
func replicaFor(t *testing.T, router http.Handler, body string) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Replica string `json:"replica"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out.Replica
}

func searchBody(m, k, l int) string {
	return fmt.Sprintf(`{"op":{"name":"t","m":%d,"k":%d,"l":%d},"buffer":1024}`, m, k, l)
}

// TestCheckBackendsRefusesVersionMismatch: a fleet that disagrees on the
// cost-model version must be refused at startup.
func TestCheckBackendsRefusesVersionMismatch(t *testing.T) {
	drifted := fleetVersion
	drifted.CostModelVersion = "cm0-legacy"
	b1 := newBackend(t, "r1", fleetVersion)
	b2 := newBackend(t, "r2", drifted)
	r, err := New(Config{Backends: []string{b1.URL, b2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	err = r.CheckBackends(context.Background())
	if err == nil {
		t.Fatal("CheckBackends accepted a mixed-version fleet")
	}
	if !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("error %v, want version mismatch", err)
	}
}

// TestProbeMarksVersionDriftDown: a replica that answers probes but has
// drifted to another cost-model version is marked down at runtime.
func TestProbeMarksVersionDriftDown(t *testing.T) {
	b1 := newBackend(t, "r1", fleetVersion)

	// r2 starts agreeing, then drifts (simulating an in-place redeploy).
	var driftedNow bool
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("/v1/version", func(w http.ResponseWriter, r *http.Request) {
		v := fleetVersion
		if driftedNow {
			v.CostModelVersion = "cm2-next"
		}
		_ = json.NewEncoder(w).Encode(v)
	})
	b2 := httptest.NewServer(mux)
	t.Cleanup(b2.Close)

	var logged []string
	r, err := New(Config{
		Backends: []string{b1.URL, b2.URL},
		Logf:     func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := r.CheckBackends(ctx); err != nil {
		t.Fatal(err)
	}
	r.probeAll(ctx)
	if got := len(r.healthyBackends()); got != 2 {
		t.Fatalf("healthy = %d before drift, want 2", got)
	}
	driftedNow = true
	r.probeAll(ctx)
	if got := len(r.healthyBackends()); got != 1 {
		t.Fatalf("healthy = %d after drift, want 1", got)
	}
	var sawDrift bool
	for _, l := range logged {
		if strings.Contains(l, "drifted") {
			sawDrift = true
		}
	}
	if !sawDrift {
		t.Fatalf("drift not logged: %q", logged)
	}
}

// TestEnvelopePassThrough: backend status codes, error envelopes, and
// Retry-After headers reach the client byte for byte.
func TestEnvelopePassThrough(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("/v1/version", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(fleetVersion)
	})
	upstreamBody := `{"error":{"code":"saturated","message":"admission queue full"}}` + "\n"
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, upstreamBody)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	r := newFleetRouter(t, ts.URL)
	req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(searchBody(8, 8, 8)))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want 7", got)
	}
	if rec.Body.String() != upstreamBody {
		t.Fatalf("body %q, want upstream envelope verbatim", rec.Body.String())
	}
}

// TestNoBackendAvailable: with every replica down, the router answers its
// own 503 no_backend envelope instead of hanging or crashing.
func TestNoBackendAvailable(t *testing.T) {
	b1 := newBackend(t, "r1", fleetVersion)
	r := newFleetRouter(t, b1.URL)
	for _, b := range r.Backends() {
		b.ej.eject()
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(searchBody(8, 8, 8)))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != api.CodeNoBackend {
		t.Fatalf("code %q, want %q", env.Error.Code, api.CodeNoBackend)
	}

	// The router's own readiness mirrors the fleet: no replicas, not ready.
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d with no healthy replicas, want 503", rec.Code)
	}
}

// TestKeylessRoundRobin: requests spread across the fleet in strict
// rotation whatever their bodies say — the router never parses a body, so
// a shaped request and a keyless one are routed alike.
func TestKeylessRoundRobin(t *testing.T) {
	b1 := newBackend(t, "r1", fleetVersion)
	b2 := newBackend(t, "r2", fleetVersion)
	r := newFleetRouter(t, b1.URL, b2.URL)
	h := r.Handler()

	hit := map[string]int{}
	for i := 0; i < 6; i++ {
		hit[replicaFor(t, h, `{}`)]++
		hit[replicaFor(t, h, searchBody(16, 12, 8))]++
	}
	if hit["r1"] != 6 || hit["r2"] != 6 {
		t.Fatalf("round-robin split %v, want 6/6", hit)
	}
}

// TestVersionEndpointReportsFleetTriple: the router's own /v1/version is the
// fleet's agreed triple from CheckBackends.
func TestVersionEndpointReportsFleetTriple(t *testing.T) {
	b1 := newBackend(t, "r1", fleetVersion)
	r := newFleetRouter(t, b1.URL)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/version", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var v api.VersionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v != fleetVersion {
		t.Fatalf("version %+v, want %+v", v, fleetVersion)
	}
}

// TestUpstreamFailureFailsOver: a replica dying no longer surfaces as a
// 502 — the buffered request is retried against the next replica of the
// rotation and the client sees a single 200 from the survivor.
func TestUpstreamFailureFailsOver(t *testing.T) {
	b1 := newBackend(t, "r1", fleetVersion)
	b2 := newBackend(t, "r2", fleetVersion)
	r := newFleetRouter(t, b1.URL, b2.URL)
	h := r.Handler()

	// Kill the replica the next request starts on.
	body := searchBody(20, 16, 12)
	aimAt(t, r, b1.URL)
	b1.Close()

	if got := replicaFor(t, h, body); got != "r2" {
		t.Fatalf("request answered by %q, want failover to r2", got)
	}
	snap := r.Registry().Snapshot()
	if got := snap["route_failovers_total"]; got != 1 {
		t.Fatalf("route_failovers_total = %v, want 1", got)
	}
	if got := snap["route_upstream_errors_total"]; got != 1 {
		t.Fatalf("route_upstream_errors_total = %v, want 1", got)
	}
}

// TestConfigValidation covers the constructor's rejection paths.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("accepted empty backend list")
	}
	if _, err := New(Config{Backends: []string{" "}}); err == nil {
		t.Fatal("accepted blank backend URL")
	}
	if _, err := New(Config{Backends: []string{"http://a:1", "a:1"}}); err == nil {
		t.Fatal("accepted duplicate backends (after normalization)")
	}
	// The relay speaks plain HTTP, and replicas have no TLS listener.
	if _, err := New(Config{Backends: []string{"https://a:1"}}); err == nil || !strings.Contains(err.Error(), "https") {
		t.Fatalf("https backend: err = %v, want a rejection naming https", err)
	}
}

// TestStartHealthLoop: the background loop probes and recovers replicas
// without manual probeAll calls.
func TestStartHealthLoop(t *testing.T) {
	b1 := newBackend(t, "r1", fleetVersion)
	r, err := New(Config{Backends: []string{b1.URL}, HealthInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckBackends(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.Backends()[0].ej.eject()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.Start(ctx)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.Backends()[0].Healthy() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("health loop never recovered the replica")
}

// TestBackendCountersExactUnderConcurrentScrapes: the per-backend counters
// are incremented on the request path, so overlapping /metrics scrapes
// read them without adding to them.
func TestBackendCountersExactUnderConcurrentScrapes(t *testing.T) {
	r := newStubRouter(t, Config{Backends: []string{"http://stub"}}, func(context.Context, *Backend, string, string, string, []byte) (reply, error) {
		return cannedReply(http.StatusOK, "", `{}`), nil
	})
	h := r.Handler()
	const n = 50
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(searchBody(8, 8, 8))))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	want := []string{
		fmt.Sprintf("route_backend_requests:http://stub %d\n", n),
		fmt.Sprintf("route_backend_attempts:http://stub %d\n", n),
		"route_backend_failures:http://stub 0\n",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				for _, line := range want {
					if !strings.Contains(rec.Body.String(), line) {
						t.Errorf("scrape missing %q", line)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
