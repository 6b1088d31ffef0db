package route

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fusecu/api"
)

// fakeClock is a mutex-guarded manual clock for the ejection breakers: the
// state-machine tests advance it explicitly instead of sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestEjectorStateMachine drives one breaker through its whole lifecycle on
// a fake clock: threshold ejection, window refusal, single half-open probe,
// failed-probe re-ejection, recovery, and probe-slot release.
func TestEjectorStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	e := newEjector(3, 5*time.Second, clk.Now)

	// Below the threshold nothing happens; the third consecutive failure
	// ejects.
	for i := 0; i < 2; i++ {
		if e.failure() {
			t.Fatalf("failure %d ejected below threshold", i+1)
		}
		if !e.healthy() {
			t.Fatalf("unhealthy after %d failures", i+1)
		}
	}
	if !e.failure() {
		t.Fatal("third consecutive failure did not eject")
	}
	if e.healthy() {
		t.Fatal("healthy while ejected")
	}
	if ok, _ := e.admit(); ok {
		t.Fatal("admitted during the ejection window")
	}

	// The window elapses: exactly one half-open probe slot is handed out.
	clk.Advance(5 * time.Second)
	if ok, probe := e.admit(); !ok || !probe {
		t.Fatalf("admit after window = (%v, %v), want the probe slot", ok, probe)
	}
	if ok, _ := e.admit(); ok {
		t.Fatal("second request admitted while the half-open probe is out")
	}

	// The probe fails: re-ejected for a fresh window.
	if !e.failure() {
		t.Fatal("failed half-open probe did not re-eject")
	}
	if ok, _ := e.admit(); ok {
		t.Fatal("admitted right after the failed probe")
	}

	// Next window: the probe succeeds, the breaker closes, and the
	// consecutive-failure count starts from zero again.
	clk.Advance(5 * time.Second)
	if ok, probe := e.admit(); !ok || !probe {
		t.Fatal("no probe slot after the second window")
	}
	if !e.success() {
		t.Fatal("probe success did not report a recovery transition")
	}
	if !e.healthy() {
		t.Fatal("not healthy after a successful probe")
	}
	if e.success() {
		t.Fatal("success while healthy reported a recovery transition")
	}
	for i := 0; i < 2; i++ {
		if e.failure() {
			t.Fatal("failure count was not reset on recovery")
		}
	}

	// cancelProbe releases the slot without a verdict, so the next request
	// may take it immediately.
	if !e.failure() {
		t.Fatal("third failure after recovery did not eject")
	}
	clk.Advance(5 * time.Second)
	if ok, probe := e.admit(); !ok || !probe {
		t.Fatal("no probe slot in the third window")
	}
	e.cancelProbe()
	if ok, probe := e.admit(); !ok || !probe {
		t.Fatal("canceled probe slot was not released")
	}
}

// newFlakyBackend is a fake replica whose /v1/* surface answers 503 while
// the returned flag is set.
func newFlakyBackend(t *testing.T, name string) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	failing := &atomic.Bool{}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("/v1/version", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(fleetVersion)
	})
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, `{"error":{"code":"no_backend","message":"dying"}}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"replica": name})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, failing
}

func backendByURL(t *testing.T, r *Router, url string) *Backend {
	t.Helper()
	for _, b := range r.Backends() {
		if b.URL() == strings.TrimRight(url, "/") {
			return b
		}
	}
	t.Fatalf("no backend for %s", url)
	return nil
}

// aimAt advances the router's round-robin cursor so that the next proxied
// request tries the backend at url first.
func aimAt(t *testing.T, r *Router, url string) {
	t.Helper()
	b := backendByURL(t, r, url)
	n := uint64(len(r.backends))
	for r.backends[r.rr.Load()%n] != b {
		r.rr.Add(1)
	}
}

// TestEjectionAndHalfOpenRecovery runs the breaker end to end over HTTP on
// a fake clock: a replica answering retryable 5xxs is ejected after the
// threshold (each client request still succeeding via failover), sits out
// its window untouched, then is re-admitted through a single half-open
// probe once it answers again — and takes its turn in the rotation again.
// Each request is aimed at r1 first. No sleeps.
func TestEjectionAndHalfOpenRecovery(t *testing.T) {
	ts1, failing := newFlakyBackend(t, "r1")
	ts2, _ := newFlakyBackend(t, "r2")
	clk := &fakeClock{t: time.Unix(2000, 0)}
	r, err := New(Config{
		Backends:       []string{ts1.URL, ts2.URL},
		EjectThreshold: 2,
		EjectWindow:    5 * time.Second,
		Now:            clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckBackends(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := r.Handler()
	body := searchBody(16, 12, 8)
	b1 := backendByURL(t, r, ts1.URL)

	// r1 starts answering 503: each request fails over to r2 (the client
	// still sees 200), and the second failure ejects r1.
	failing.Store(true)
	for i := 0; i < 2; i++ {
		aimAt(t, r, ts1.URL)
		if got := replicaFor(t, h, body); got != "r2" {
			t.Fatalf("request %d answered by %q, want failover to r2", i, got)
		}
	}
	if b1.Healthy() {
		t.Fatal("r1 still in rotation after EjectThreshold failures")
	}

	// While ejected, r1 is not even attempted.
	aimAt(t, r, ts1.URL)
	before := b1.Attempts()
	if got := replicaFor(t, h, body); got != "r2" {
		t.Fatalf("ejected window request answered by %q", got)
	}
	if b1.Attempts() != before {
		t.Fatal("ejected replica was attempted during its window")
	}

	// Window over and r1 recovered: the next request is the half-open
	// probe, succeeds on r1, and closes the breaker — r1 is back in
	// rotation.
	clk.Advance(5 * time.Second)
	failing.Store(false)
	aimAt(t, r, ts1.URL)
	if got := replicaFor(t, h, body); got != "r1" {
		t.Fatalf("half-open probe answered by %q, want r1", got)
	}
	if !b1.Healthy() {
		t.Fatal("successful probe did not close the breaker")
	}
	aimAt(t, r, ts1.URL)
	if got := replicaFor(t, h, body); got != "r1" {
		t.Fatalf("post-recovery request answered by %q, want r1", got)
	}

	snap := r.Registry().Snapshot()
	if snap["route_ejections_total"] != 1 {
		t.Fatalf("route_ejections_total = %v, want 1", snap["route_ejections_total"])
	}
	if snap["route_retryable_status_total"] != 2 {
		t.Fatalf("route_retryable_status_total = %v, want 2", snap["route_retryable_status_total"])
	}
}

// TestMidRequestReplicaKill: the first replica dies while the request is
// in flight (before any response bytes); the client still sees a single
// 200 whose body is bit-identical to the survivor's direct answer.
func TestMidRequestReplicaKill(t *testing.T) {
	const payload = `{"best":{"f1":8,"c1":4,"cost":12345}}` + "\n"
	serve := func(name string, killFirst *atomic.Bool) *httptest.Server {
		var ts *httptest.Server
		mux := http.NewServeMux()
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.WriteString(w, `{"status":"ready"}`)
		})
		mux.HandleFunc("/v1/version", func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(fleetVersion)
		})
		mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
			if killFirst != nil && killFirst.CompareAndSwap(true, false) {
				// Stop listening and abort the connection with the request
				// in flight — the router's relay sees an EOF and a refused
				// redial, exactly like a replica killed mid-request.
				_ = ts.Listener.Close()
				panic(http.ErrAbortHandler)
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, payload)
		})
		ts = httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}

	kill := &atomic.Bool{}
	ts1 := serve("r1", kill)
	ts2 := serve("r2", nil)
	r := newFleetRouter(t, ts1.URL, ts2.URL)
	h := r.Handler()

	// Aim the request at ts1, then arm the kill.
	body := searchBody(16, 12, 8)
	aimAt(t, r, ts1.URL)
	kill.Store(true)

	req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want a single 200 despite the mid-request kill", rec.Code)
	}
	if rec.Body.String() != payload {
		t.Fatalf("body %q not bit-identical to the reference payload %q", rec.Body.String(), payload)
	}
	if got := r.Registry().Snapshot()["route_failovers_total"]; got != 1 {
		t.Fatalf("route_failovers_total = %v, want 1", got)
	}
}

// TestClientDisconnectDoesNotEject is the regression test for the ejection
// bugfix: the inbound client canceling its own request used to mark the
// (healthy) upstream down. Now it maps to a 499 envelope, no breaker
// accounting, and the relay closes the upstream connection.
func TestClientDisconnectDoesNotEject(t *testing.T) {
	entered := make(chan struct{}, 1)
	ts, cc := newCountedBackend(t, func(w http.ResponseWriter, r *http.Request) {
		// Consume the body so the server's background read can observe the
		// client-side cancel and end this request's context.
		_, _ = io.Copy(io.Discard, r.Body)
		entered <- struct{}{}
		// Serve only after the caller abandons the request.
		<-r.Context().Done()
	})

	// The most aggressive breaker possible: a single counted failure ejects.
	r, err := New(Config{Backends: []string{ts.URL}, EjectThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckBackends(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := r.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(searchBody(8, 8, 8))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	<-entered // the proxy attempt reached the replica
	cancel()  // ... and now the client hangs up
	<-done

	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d", rec.Code, statusClientClosedRequest)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != api.CodeClientClosedRequest {
		t.Fatalf("code %q, want %q", env.Error.Code, api.CodeClientClosedRequest)
	}
	if !r.Backends()[0].Healthy() {
		t.Fatal("client disconnect ejected a healthy replica")
	}
	snap := r.Registry().Snapshot()
	if snap["route_client_disconnects_total"] != 1 {
		t.Fatalf("route_client_disconnects_total = %v, want 1", snap["route_client_disconnects_total"])
	}
	if snap["route_upstream_errors_total"] != 0 {
		t.Fatalf("route_upstream_errors_total = %v, want 0", snap["route_upstream_errors_total"])
	}
	// The upstream connection, a reply still owed on it, is closed rather
	// than pooled.
	waitFor(t, "the upstream connection to close", func() bool { return cc.closed.Load() == 1 })
	if n := len(r.cfg.Transport.(*relay).idle[strings.TrimPrefix(ts.URL, "http://")]); n != 0 {
		t.Fatalf("%d connections pooled after a disconnect, want 0", n)
	}
}

// TestHedgeWinsAndCancelsLoser: a primary that never answers is overtaken
// by the hedge after HedgeAfter; the hedge's 200 is delivered, the primary
// is canceled (not penalized — it never gave a verdict), and the hedge
// counters record the win.
func TestHedgeWinsAndCancelsLoser(t *testing.T) {
	primaryCanceled := make(chan struct{}, 1)
	slow := func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // let the server observe the cancel
		<-r.Context().Done()
		primaryCanceled <- struct{}{}
	}
	fast := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"replica":"hedge"}`)
	}
	serve := func(v1 http.HandlerFunc) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.WriteString(w, `{"status":"ready"}`)
		})
		mux.HandleFunc("/v1/version", func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(fleetVersion)
		})
		mux.HandleFunc("/v1/", v1)
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	ts1 := serve(slow)
	ts2 := serve(fast)

	r, err := New(Config{Backends: []string{ts1.URL, ts2.URL}, HedgeAfter: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckBackends(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := r.Handler()

	// Aim the request at the slow replica, so the hedge goes to the fast
	// one.
	body := searchBody(16, 12, 8)
	aimAt(t, r, ts1.URL)

	req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"hedge"`) {
		t.Fatalf("body %q, want the hedge replica's answer", rec.Body.String())
	}
	<-primaryCanceled // the loser was canceled, not abandoned

	snap := r.Registry().Snapshot()
	if snap["route_hedges_total"] != 1 || snap["route_hedge_wins_total"] != 1 {
		t.Fatalf("hedges=%v wins=%v, want 1/1", snap["route_hedges_total"], snap["route_hedge_wins_total"])
	}
	if snap["route_upstream_errors_total"] != 0 {
		t.Fatalf("route_upstream_errors_total = %v — the canceled loser was penalized", snap["route_upstream_errors_total"])
	}
	if !r.Backends()[0].Healthy() || !r.Backends()[1].Healthy() {
		t.Fatal("hedging changed breaker state of a healthy fleet")
	}
}

// TestNonRetryableStatusPassesThrough: 504 (deadline already spent) and 429
// (admission backpressure) are never failed over, even with a healthy
// alternative in the rotation.
func TestNonRetryableStatusPassesThrough(t *testing.T) {
	for _, status := range []int{http.StatusGatewayTimeout, http.StatusTooManyRequests} {
		statusBackend := func(code int, name string) *httptest.Server {
			mux := http.NewServeMux()
			mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.WriteString(w, `{"status":"ready"}`)
			})
			mux.HandleFunc("/v1/version", func(w http.ResponseWriter, r *http.Request) {
				_ = json.NewEncoder(w).Encode(fleetVersion)
			})
			mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
				if code != 0 {
					w.Header().Set("Retry-After", "3")
					w.WriteHeader(code)
					return
				}
				_ = json.NewEncoder(w).Encode(map[string]any{"replica": name})
			})
			ts := httptest.NewServer(mux)
			t.Cleanup(ts.Close)
			return ts
		}
		ts1 := statusBackend(status, "r1")
		ts2 := statusBackend(0, "r2")
		r := newFleetRouter(t, ts1.URL, ts2.URL)
		h := r.Handler()

		aimAt(t, r, ts1.URL)
		req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(searchBody(16, 12, 8)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != status {
			t.Fatalf("status %d, want %d passed through verbatim", rec.Code, status)
		}
		if got := rec.Header().Get("Retry-After"); got != "3" {
			t.Fatalf("Retry-After %q, want 3", got)
		}
		if got := r.Registry().Snapshot()["route_failovers_total"]; got != 0 {
			t.Fatalf("route_failovers_total = %v for status %d, want 0", got, status)
		}
	}
}

// roundTripFunc adapts a function to http.RoundTripper for synthetic
// upstream responses.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// errCloseBody reads fine but fails on Close.
type errCloseBody struct{ io.Reader }

func (b *errCloseBody) Close() error { return errors.New("close failed") }

// failingWriter is a ResponseWriter whose Write always errors, forcing a
// mid-stream copy failure toward the client.
type failingWriter struct {
	h    http.Header
	code int
}

func (w *failingWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *failingWriter) WriteHeader(code int)      { w.code = code }
func (w *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client went away") }

// TestCopyAndCloseErrorSplit: a truncated response toward the client counts
// as route_copy_errors_total, a failing upstream body close as
// route_close_errors_total — never the shared route_encode_errors_total.
func TestCopyAndCloseErrorSplit(t *testing.T) {
	newStub := func(body io.ReadCloser) *Router {
		rt := roundTripFunc(func(*http.Request) (*http.Response, error) {
			return &http.Response{
				StatusCode: http.StatusOK,
				Header:     http.Header{"Content-Type": []string{"application/json"}},
				Body:       body,
			}, nil
		})
		r, err := New(Config{Backends: []string{"http://stub"}, Transport: rt})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Close failure only: delivered body intact, close noise counted apart.
	r := newStub(&errCloseBody{Reader: strings.NewReader(`{"ok":true}`)})
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(searchBody(8, 8, 8))))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	snap := r.Registry().Snapshot()
	if snap["route_close_errors_total"] != 1 || snap["route_copy_errors_total"] != 0 {
		t.Fatalf("close=%v copy=%v, want close=1 copy=0", snap["route_close_errors_total"], snap["route_copy_errors_total"])
	}

	// Copy failure only: the client connection broke mid-stream.
	r = newStub(io.NopCloser(strings.NewReader(`{"ok":true}`)))
	fw := &failingWriter{}
	r.Handler().ServeHTTP(fw, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(searchBody(8, 8, 8))))
	snap = r.Registry().Snapshot()
	if snap["route_copy_errors_total"] != 1 || snap["route_close_errors_total"] != 0 {
		t.Fatalf("copy=%v close=%v, want copy=1 close=0", snap["route_copy_errors_total"], snap["route_close_errors_total"])
	}
	if snap["route_encode_errors_total"] != 0 {
		t.Fatalf("route_encode_errors_total = %v, want 0 — proxy errors must not share it", snap["route_encode_errors_total"])
	}
}

// TestProxyAttemptBudgetExhaustion: when every candidate keeps failing at
// the transport level, the router gives up after ProxyAttempts with its own
// 502 envelope (there is no upstream response left to pass through).
func TestProxyAttemptBudgetExhaustion(t *testing.T) {
	rt := roundTripFunc(func(*http.Request) (*http.Response, error) {
		return nil, errors.New("connection refused")
	})
	r, err := New(Config{
		Backends:      []string{"http://stub-a", "http://stub-b", "http://stub-c", "http://stub-d"},
		Transport:     rt,
		ProxyAttempts: 2,
		// A high threshold so ejection doesn't shrink the candidate list
		// under the attempt budget being tested.
		EjectThreshold: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(searchBody(8, 8, 8))))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 after budget exhaustion", rec.Code)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != api.CodeNoBackend {
		t.Fatalf("code %q, want %q", env.Error.Code, api.CodeNoBackend)
	}
	snap := r.Registry().Snapshot()
	if snap["route_upstream_errors_total"] != 2 {
		t.Fatalf("route_upstream_errors_total = %v, want exactly ProxyAttempts=2", snap["route_upstream_errors_total"])
	}
}
