package route

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestAffinityStickiness: the same shape must always land on the same
// replica, regardless of request order or repetition, and distinct shapes
// must spread across the fleet (the whole point of affinity routing).
func TestAffinityStickiness(t *testing.T) {
	b1 := newBackend(t, "r1", fleetVersion)
	b2 := newBackend(t, "r2", fleetVersion)
	b3 := newBackend(t, "r3", fleetVersion)
	r := newFleetRouter(t, b1.URL, b2.URL, b3.URL)
	h := r.Handler()

	hit := map[string]bool{}
	for shape := 0; shape < 24; shape++ {
		body := searchBody(16+shape, 12, 8)
		first := replicaFor(t, h, body)
		hit[first] = true
		for rep := 0; rep < 4; rep++ {
			if got := replicaFor(t, h, body); got != first {
				t.Fatalf("shape %d moved from %s to %s", shape, first, got)
			}
		}
	}
	if len(hit) < 2 {
		t.Fatalf("24 shapes all routed to one replica: %v", hit)
	}
}

// TestAffinityGridIndependent: both lattices of one shape share a replica —
// the affinity key hashes the shape with an empty grid.
func TestAffinityGridIndependent(t *testing.T) {
	b1 := newBackend(t, "r1", fleetVersion)
	b2 := newBackend(t, "r2", fleetVersion)
	r := newFleetRouter(t, b1.URL, b2.URL)
	h := r.Handler()

	full := `{"op":{"name":"t","m":48,"k":32,"l":40},"buffer":1024,"grid":"full"}`
	coarse := `{"op":{"name":"t","m":48,"k":32,"l":40},"buffer":1024,"grid":"coarse"}`
	if a, b := replicaFor(t, h, full), replicaFor(t, h, coarse); a != b {
		t.Fatalf("full lattice on %s, coarse on %s — grids split the shape", a, b)
	}
}

// TestFailoverPreservesAffinity: when one replica goes down its keys move to
// a healthy owner, while shapes owned by surviving replicas stay put.
func TestFailoverPreservesAffinity(t *testing.T) {
	b1 := newBackend(t, "r1", fleetVersion)
	b2 := newBackend(t, "r2", fleetVersion)
	b3 := newBackend(t, "r3", fleetVersion)
	r := newFleetRouter(t, b1.URL, b2.URL, b3.URL)
	h := r.Handler()

	// Map enough shapes that every replica owns at least one.
	owner := map[string]string{}
	for shape := 0; shape < 30; shape++ {
		body := searchBody(16+shape, 12, 8)
		owner[body] = replicaFor(t, h, body)
	}

	// Take r2 down (as the health loop would on probe failure).
	var downed *Backend
	for _, b := range r.Backends() {
		if b.URL() == strings.TrimRight(b2.URL, "/") {
			b.ej.eject()
			downed = b
		}
	}
	if downed == nil {
		t.Fatal("backend for r2 not found")
	}

	moved := 0
	for body, was := range owner {
		now := replicaFor(t, h, body)
		if now == "r2" {
			t.Fatalf("request still routed to downed replica r2")
		}
		if was != "r2" && now != was {
			t.Fatalf("shape owned by healthy %s moved to %s", was, now)
		}
		if was == "r2" {
			moved++
		}
	}
	if moved == 0 {
		t.Skip("no shape happened to hash to r2; distribution covered elsewhere")
	}

	// Recovery restores the original owner.
	downed.ej.success()
	for body, was := range owner {
		if got := replicaFor(t, h, body); got != was {
			t.Fatalf("after recovery shape moved from %s to %s", was, got)
		}
	}
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

// TestKeylessRoundRobin: requests with no extractable affinity key spread
// across the fleet instead of pinning one replica.
func TestKeylessRoundRobin(t *testing.T) {
	b1 := newBackend(t, "r1", fleetVersion)
	b2 := newBackend(t, "r2", fleetVersion)
	r := newFleetRouter(t, b1.URL, b2.URL)
	h := r.Handler()

	hit := map[string]int{}
	for i := 0; i < 6; i++ {
		hit[replicaFor(t, h, `{}`)]++
	}
	if hit["r1"] != 3 || hit["r2"] != 3 {
		t.Fatalf("round-robin split %v, want 3/3", hit)
	}
}

// TestEvaluateAffinityKey: /v1/evaluate has no operator; its model+seq pair
// is the affinity key, so repeated sweeps of one workload stay warm on one
// replica.
func TestEvaluateAffinityKey(t *testing.T) {
	b1 := newBackend(t, "r1", fleetVersion)
	b2 := newBackend(t, "r2", fleetVersion)
	b3 := newBackend(t, "r3", fleetVersion)
	r := newFleetRouter(t, b1.URL, b2.URL, b3.URL)
	h := r.Handler()

	body := `{"model":"llama2","seq":1024}`
	first := replicaFor(t, h, body)
	for i := 0; i < 5; i++ {
		if got := replicaFor(t, h, body); got != first {
			t.Fatalf("evaluate key moved from %s to %s", first, got)
		}
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
// 502 — the buffered request is retried against the ring successor and the
// client sees a single 200 from the survivor.
func TestUpstreamFailureFailsOver(t *testing.T) {
	b1 := newBackend(t, "r1", fleetVersion)
	b2 := newBackend(t, "r2", fleetVersion)
	r := newFleetRouter(t, b1.URL, b2.URL)
	h := r.Handler()

	// Kill whichever replica owns this shape.
	body := searchBody(20, 16, 12)
	owner := replicaFor(t, h, body)
	survivor := "r1"
	if owner == "r1" {
		b1.Close()
		survivor = "r2"
	} else {
		b2.Close()
	}

	if got := replicaFor(t, h, body); got != survivor {
		t.Fatalf("request answered by %q, want failover to %q", got, survivor)
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
