package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fusecu/api"
	"fusecu/internal/core"
	"fusecu/internal/cost"
	"fusecu/internal/faultinject"
	"fusecu/internal/op"
	"fusecu/internal/search"
	"fusecu/internal/service"
)

func newServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// slowSearch arms latency on every cost evaluation (search.SiteEval) for
// the rest of the test, so a search the walk would answer in microseconds
// stays in flight for about delay × 127 on 224³ at 1 MiB.
func slowSearch(t *testing.T, delay time.Duration) {
	t.Helper()
	faultinject.Activate(faultinject.New(1,
		faultinject.Plan{Site: search.SiteEval, Mode: faultinject.ModeLatency, Delay: delay}))
	t.Cleanup(faultinject.Deactivate)
}

func newClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// noSleep is the deterministic Sleep seam: it records every requested delay
// and returns immediately, optionally running a hook per call.
type noSleep struct {
	mu     sync.Mutex
	delays []time.Duration
	hook   func(call int)
}

func (n *noSleep) sleep(_ context.Context, d time.Duration) error {
	n.mu.Lock()
	call := len(n.delays)
	n.delays = append(n.delays, d)
	hook := n.hook
	n.mu.Unlock()
	if hook != nil {
		hook(call)
	}
	return nil
}

func (n *noSleep) recorded() []time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]time.Duration(nil), n.delays...)
}

// fakeClock drives the breaker's cooldown without real time passing.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

func TestRoundTripAllEndpoints(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	c := newClient(t, Config{BaseURL: ts.URL})
	ctx := context.Background()

	opt, err := c.Optimize(ctx, OptimizeRequest{Op: OpSpec{M: 512, K: 64, L: 512}, Buffer: 65536})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	want, err := core.Optimize(op.MatMul{M: 512, K: 64, L: 512}, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Dataflow.MemoryAccess != want.Access.Total {
		t.Fatalf("Optimize MA %d != core %d", opt.Dataflow.MemoryAccess, want.Access.Total)
	}

	plan, err := c.Plan(ctx, PlanRequest{Name: "attn",
		Ops:    []OpSpec{{M: 512, K: 64, L: 512}, {M: 512, K: 512, L: 64}},
		Buffer: 65536})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(plan.Decisions) != 1 || plan.TotalMA <= 0 {
		t.Fatalf("unexpected plan shape: %+v", plan)
	}

	sr, err := c.Search(ctx, SearchRequest{Op: OpSpec{M: 48, K: 32, L: 40}, Buffer: 4096, Engine: "exhaustive"})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	ref, err := search.ReferenceExhaustive(op.MatMul{M: 48, K: 32, L: 40}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Degraded || sr.Dataflow.MemoryAccess != ref.Access.Total {
		t.Fatalf("Search diverged from reference: %+v", sr)
	}

	ev, err := c.Evaluate(ctx, EvaluateRequest{Model: "BERT", Platforms: []string{"FuseCU"}})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(ev.Results) != 1 || ev.Results[0].MemoryAccess <= 0 {
		t.Fatalf("unexpected evaluate shape: %+v", ev)
	}
	if got := c.Stats(); got.Attempts != 4 || got.Retries != 0 || got.BreakerOpen != 0 {
		t.Fatalf("clean round trips perturbed the stats: %+v", got)
	}
}

// TestRetriesThroughInjected5xxWave: the server fails the first two attempts
// with injected 500s; the client retries through the wave with full-jitter
// backoff and lands the third attempt.
func TestRetriesThroughInjected5xxWave(t *testing.T) {
	in := faultinject.New(1, faultinject.Plan{Site: "service.optimize", Mode: faultinject.ModeError, Times: 2})
	_, ts := newServer(t, service.Config{Injector: in})
	ns := &noSleep{}
	c := newClient(t, Config{BaseURL: ts.URL, Seed: 7,
		BaseBackoff: 100 * time.Millisecond, MaxBackoff: 2 * time.Second, Sleep: ns.sleep})

	opt, err := c.Optimize(context.Background(), OptimizeRequest{Op: OpSpec{M: 64, K: 64, L: 64}, Buffer: 4096})
	if err != nil {
		t.Fatalf("Optimize through 5xx wave: %v", err)
	}
	if opt.Dataflow.MemoryAccess <= 0 {
		t.Fatalf("degenerate response: %+v", opt)
	}
	if got := c.Stats(); got.Attempts != 3 || got.Retries != 2 {
		t.Fatalf("stats = %+v, want 3 attempts / 2 retries", got)
	}
	delays := ns.recorded()
	if len(delays) != 2 {
		t.Fatalf("recorded %d sleeps, want 2", len(delays))
	}
	// Full jitter: each delay is uniform in [0, BaseBackoff·2^(n-1)].
	for i, ceiling := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
		if delays[i] < 0 || delays[i] > ceiling {
			t.Fatalf("retry %d delay %v outside [0, %v]", i+1, delays[i], ceiling)
		}
	}
	if in.Fires("service.optimize") != 2 {
		t.Fatalf("injector fired %d times, want 2", in.Fires("service.optimize"))
	}
}

// TestRetryAfterHonoredOn429 holds the single admission slot with a slow
// search, so the client's first attempt is shed with Retry-After: 3. The
// Sleep seam proves the client slept exactly the advertised 3s (no jitter),
// releases the slot, and the retry succeeds.
func TestRetryAfterHonoredOn429(t *testing.T) {
	s, ts := newServer(t, service.Config{MaxInFlight: 1, RetryAfter: 3, DefaultTimeout: 30 * time.Second})
	slowSearch(t, 20*time.Millisecond)

	slowCtx, releaseSlot := context.WithCancel(context.Background())
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		req, err := http.NewRequestWithContext(slowCtx, http.MethodPost, ts.URL+"/v1/search",
			strings.NewReader(`{"op":{"m":224,"k":224,"l":224},"buffer":1048576,"engine":"exhaustive"}`))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			if cerr := resp.Body.Close(); cerr != nil {
				t.Error(cerr)
			}
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Registry().Gauge("http_inflight").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot-holding search never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	ns := &noSleep{}
	ns.hook = func(int) {
		// The client is now between attempts: free the slot and wait until
		// the server has really released it, so the retry is admitted.
		releaseSlot()
		<-slowDone
		drainDeadline := time.Now().Add(10 * time.Second)
		for s.Registry().Gauge("http_inflight").Value() != 0 {
			if time.Now().After(drainDeadline) {
				t.Error("slot never released")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	c := newClient(t, Config{BaseURL: ts.URL, Sleep: ns.sleep})
	if _, err := c.Optimize(context.Background(), OptimizeRequest{Op: OpSpec{M: 8, K: 8, L: 8}, Buffer: 64}); err != nil {
		t.Fatalf("Optimize through 429: %v", err)
	}
	delays := ns.recorded()
	if len(delays) != 1 || delays[0] != 3*time.Second {
		t.Fatalf("recorded sleeps %v, want exactly [3s] from Retry-After", delays)
	}
	if got := c.Stats(); got.Attempts != 2 || got.Retries != 1 {
		t.Fatalf("stats = %+v, want 2 attempts / 1 retry", got)
	}
}

// TestPerAttemptTimeoutSurvivesLatencySpike: an injected 300ms stall on the
// first request would eat a shared deadline; the per-attempt timeout cuts it
// off at 50ms and the retry (injection exhausted) succeeds immediately.
func TestPerAttemptTimeoutSurvivesLatencySpike(t *testing.T) {
	in := faultinject.New(1, faultinject.Plan{Site: "service.optimize", Mode: faultinject.ModeLatency,
		Delay: 300 * time.Millisecond, Times: 1})
	_, ts := newServer(t, service.Config{Injector: in})
	ns := &noSleep{}
	c := newClient(t, Config{BaseURL: ts.URL, AttemptTimeout: 50 * time.Millisecond, Sleep: ns.sleep})

	start := time.Now()
	opt, err := c.Optimize(context.Background(), OptimizeRequest{Op: OpSpec{M: 64, K: 64, L: 64}, Buffer: 4096})
	if err != nil {
		t.Fatalf("Optimize through latency spike: %v", err)
	}
	if opt.Dataflow.MemoryAccess <= 0 {
		t.Fatalf("degenerate response: %+v", opt)
	}
	if got := c.Stats(); got.Attempts != 2 || got.Retries != 1 {
		t.Fatalf("stats = %+v, want 2 attempts / 1 retry", got)
	}
	// The whole call must beat the injected stall: proof the first attempt
	// was abandoned at its own timeout rather than waiting out the spike.
	if elapsed := time.Since(start); elapsed >= 300*time.Millisecond {
		t.Fatalf("call took %v, not cut off by the 50ms attempt timeout", elapsed)
	}
}

func TestClientErrorsAreNotRetried(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	ns := &noSleep{}
	c := newClient(t, Config{BaseURL: ts.URL, Sleep: ns.sleep})
	_, err := c.Optimize(context.Background(), OptimizeRequest{Op: OpSpec{M: 0, K: 8, L: 8}, Buffer: 64})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "invalid_request" {
		t.Fatalf("err = %v, want 400 invalid_request APIError", err)
	}
	if got := c.Stats(); got.Attempts != 1 || got.Retries != 0 {
		t.Fatalf("4xx was retried: %+v", got)
	}
}

// TestBreakerTripsAndRecovers walks the breaker's whole state machine on a
// fake clock: three consecutive injected 500s open it, an open call fails
// fast without touching the server, the first post-cooldown probe fails and
// re-opens it, and the second probe (injection exhausted) re-closes it.
func TestBreakerTripsAndRecovers(t *testing.T) {
	in := faultinject.New(1, faultinject.Plan{Site: "service.optimize", Mode: faultinject.ModeError,
		Every: 1, Times: 4})
	_, ts := newServer(t, service.Config{Injector: in})
	clock := &fakeClock{t: time.Unix(1000, 0)}
	ns := &noSleep{}
	c := newClient(t, Config{BaseURL: ts.URL, MaxAttempts: 1,
		BreakerThreshold: 3, BreakerCooldown: 5 * time.Second,
		Now: clock.now, Sleep: ns.sleep})
	ctx := context.Background()
	req := OptimizeRequest{Op: OpSpec{M: 64, K: 64, L: 64}, Buffer: 4096}

	// Three consecutive 500s trip the breaker.
	for i := 0; i < 3; i++ {
		var apiErr *APIError
		if _, err := c.Optimize(ctx, req); !errors.As(err, &apiErr) || apiErr.Status != 500 {
			t.Fatalf("call %d: err = %v, want injected 500", i+1, err)
		}
	}
	// Open: rejected without a network attempt.
	if _, err := c.Optimize(ctx, req); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker let the call through: %v", err)
	}
	if v := in.Visits("service.optimize"); v != 3 {
		t.Fatalf("open-breaker call reached the server: %d visits", v)
	}
	if got := c.Stats(); got.BreakerOpen != 1 {
		t.Fatalf("BreakerOpen = %d, want 1", got.BreakerOpen)
	}

	// Half-open probe after cooldown still hits the fault: re-opens.
	clock.advance(5 * time.Second)
	if _, err := c.Optimize(ctx, req); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("probe outcome: %v, want a served 500", err)
	}
	if v := in.Visits("service.optimize"); v != 4 {
		t.Fatalf("probe did not reach the server: %d visits", v)
	}
	if _, err := c.Optimize(ctx, req); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("breaker did not re-open after failed probe: %v", err)
	}

	// Injection exhausted: the next probe succeeds and closes the breaker.
	clock.advance(5 * time.Second)
	if _, err := c.Optimize(ctx, req); err != nil {
		t.Fatalf("recovery probe failed: %v", err)
	}
	if _, err := c.Optimize(ctx, req); err != nil {
		t.Fatalf("call after recovery failed: %v", err)
	}
	if got := c.Stats(); got.BreakerOpen != 2 {
		t.Fatalf("BreakerOpen = %d, want 2", got.BreakerOpen)
	}
}

// TestRetryBudgetCapsBackoff: a permanently shedding server advertises
// Retry-After: 2 every time; with a 3s budget the client affords exactly one
// such sleep and then gives up with the budget error instead of burning the
// caller's deadline.
func TestRetryBudgetCapsBackoff(t *testing.T) {
	var hits int64
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":{"code":"overloaded","message":"shed"}}`)
	}))
	t.Cleanup(ts.Close)
	ns := &noSleep{}
	c := newClient(t, Config{BaseURL: ts.URL, MaxAttempts: 10, RetryBudget: 3 * time.Second, Sleep: ns.sleep})

	_, err := c.Optimize(context.Background(), OptimizeRequest{Op: OpSpec{M: 8, K: 8, L: 8}, Buffer: 64})
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err = %v, want retry-budget exhaustion", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("budget error does not wrap the last 429: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 2 {
		t.Fatalf("server saw %d attempts, want 2 (one sleep fits the 3s budget)", hits)
	}
	if delays := ns.recorded(); len(delays) != 1 || delays[0] != 2*time.Second {
		t.Fatalf("recorded sleeps %v, want [2s]", delays)
	}
}

// TestSearchSurfacesDegradedAnswers: the client reports (and counts) the
// server's principle-based fallback rather than treating it as a failure.
func TestSearchSurfacesDegradedAnswers(t *testing.T) {
	_, ts := newServer(t, service.Config{DefaultTimeout: 150 * time.Millisecond})
	slowSearch(t, 5*time.Millisecond)
	c := newClient(t, Config{BaseURL: ts.URL})
	sr, err := c.Search(context.Background(),
		SearchRequest{Op: OpSpec{M: 224, K: 224, L: 224}, Buffer: 1 << 20, Engine: "exhaustive"})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if !sr.Degraded || sr.DegradedReason != "deadline" || sr.Method != "principle" {
		t.Fatalf("response not degraded: %+v", sr)
	}
	want, err := core.Optimize(op.MatMul{M: 224, K: 224, L: 224}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Dataflow.MemoryAccess != want.Access.Total {
		t.Fatalf("degraded MA %d != principle optimum %d", sr.Dataflow.MemoryAccess, want.Access.Total)
	}
	if got := c.Stats(); got.Degraded != 1 {
		t.Fatalf("Degraded counter = %d, want 1", got.Degraded)
	}
}

// TestStatsSplitTransportAndServerErrors: the failure counters distinguish
// attempts that never got a response from attempts answered with a 5xx, so
// the chaos harness can attribute client-observed errors.
func TestStatsSplitTransportAndServerErrors(t *testing.T) {
	in := faultinject.New(1, faultinject.Plan{Site: "service.optimize", Mode: faultinject.ModeError, Times: 2})
	_, ts := newServer(t, service.Config{Injector: in})
	ns := &noSleep{}
	c := newClient(t, Config{BaseURL: ts.URL, Sleep: ns.sleep})

	// Two injected 500s, then success: two server errors, no transport ones.
	if _, err := c.Optimize(context.Background(), OptimizeRequest{Op: OpSpec{M: 64, K: 64, L: 64}, Buffer: 4096}); err != nil {
		t.Fatalf("Optimize through 5xx wave: %v", err)
	}
	if got := c.Stats(); got.ServerErrors != 2 || got.TransportErrors != 0 {
		t.Fatalf("stats after 5xx wave = %+v, want ServerErrors=2 TransportErrors=0", got)
	}

	// A dead endpoint: every attempt is a transport error.
	dead := newClient(t, Config{BaseURL: "http://127.0.0.1:1", MaxAttempts: 2, Sleep: ns.sleep, BreakerThreshold: -1})
	if _, err := dead.Version(context.Background()); err == nil {
		t.Fatal("Version against a dead endpoint succeeded")
	}
	if got := dead.Stats(); got.TransportErrors != 2 || got.ServerErrors != 0 {
		t.Fatalf("stats against dead endpoint = %+v, want TransportErrors=2 ServerErrors=0", got)
	}
}

// TestVersionMethod round-trips GET /v1/version through the client.
func TestVersionMethod(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	c := newClient(t, Config{BaseURL: ts.URL})
	v, err := c.Version(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := VersionResponse{
		APIVersion:         api.Version,
		CostModelVersion:   cost.ModelVersion,
		TableFormatVersion: api.TableFormatVersion,
	}
	if *v != want {
		t.Fatalf("version = %+v, want %+v", *v, want)
	}
}
