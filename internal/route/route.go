// Package route implements fusecu-route: an HTTP router in front of a
// fleet of fusecu-serve replicas.
//
// Replicas keep no per-shape state, so the router routes by health, not by
// shape: each request starts at the next replica of a round-robin rotation
// and walks the rest of the rotation on failure. The router buffers each
// request body but never parses it. Because every /v1/* request is a pure,
// deterministic, fully-buffered optimization query, the router treats
// replica failure as retryable: an upstream transport error or retryable
// 5xx fails over to the next replica in the rotation under a per-request
// attempt budget, so a replica dying mid-request still yields a single
// successful response. Optionally, a request that has not answered within
// HedgeAfter launches a hedge to the next admissible replica; the first
// response wins and the loser is canceled.
//
// Upstream exchanges run on the relay (relay.go), a synchronous HTTP/1.1
// client over pooled keep-alive connections: the handler goroutine writes
// the request and reads the reply itself, with no per-connection
// goroutines.
//
// Backend health is a per-replica ejection breaker (see ejector):
// consecutive request failures eject a replica for a window, after which a
// single half-open probe request may re-admit it. The background health
// loop (/readyz + /v1/version every HealthInterval) is authoritative in
// both directions: a failed probe force-ejects, a successful one heals. At
// startup — and again on every health pass — each replica's /v1/version is
// checked against the fleet's agreed versions: a replica answering with a
// different cost-model version is refused (startup) or ejected (runtime),
// because mixing cost-model generations behind one router would let
// identical requests return different optima depending on which replica
// answered.
//
// The router is a pass-through for the wire contract: backend status codes,
// error envelopes, and Retry-After headers reach the client byte for byte,
// each reply written once with its Content-Length. The one exception is a
// retryable 5xx with a healthy alternative left in the candidate walk —
// that response is discarded and the request retried; when no alternative
// remains the 5xx passes through verbatim.
package route

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"fusecu/api"
	"fusecu/internal/faultinject"
	"fusecu/internal/metrics"
)

// Fault-injection sites in the routing path (see internal/faultinject).
const (
	// SiteProxy fires once per upstream proxy attempt, before the request
	// is issued — arm latency to force hedges, errors to force failover.
	SiteProxy = "route.proxy"
	// SiteProbe fires once per background health probe of one backend.
	SiteProbe = "route.probe"
)

// Config tunes a Router.
type Config struct {
	// Backends are the replica base URLs, e.g. "http://127.0.0.1:8081".
	// Required, at least one.
	Backends []string
	// Transport runs proxy attempts and health/version probes; nil means
	// the relay, the router's synchronous HTTP/1.1 client (relay.go).
	// Tests substitute fakes here.
	Transport http.RoundTripper
	// HealthInterval is the /readyz + /v1/version poll period (default 2s).
	HealthInterval time.Duration
	// ProbeTimeout bounds each health/version probe (default 2s).
	ProbeTimeout time.Duration
	// ProxyAttempts bounds how many upstream attempts one request may
	// consume, failover and hedges included (default 3).
	ProxyAttempts int
	// EjectThreshold is the number of consecutive failed attempts that
	// ejects a backend from rotation (default 3).
	EjectThreshold int
	// EjectWindow is how long an ejected backend sits out before a single
	// half-open probe request may test it (default 5s).
	EjectWindow time.Duration
	// HedgeAfter, when positive, duplicates a request to the next
	// admissible replica in its rotation if the primary has not answered
	// within the delay; the first response wins and the loser is canceled.
	// Default 0 = off.
	HedgeAfter time.Duration
	// Now is the clock consulted by the ejection breakers; nil means
	// time.Now. Tests substitute a fake clock for deterministic
	// window/half-open transitions.
	Now func() time.Time
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Transport == nil {
		c.Transport = newRelay()
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ProxyAttempts <= 0 {
		c.ProxyAttempts = 3
	}
	if c.EjectThreshold <= 0 {
		c.EjectThreshold = 3
	}
	if c.EjectWindow <= 0 {
		c.EjectWindow = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Backend is one replica and its routing state.
type Backend struct {
	url string
	ej  *ejector
	// requests counts responses delivered to clients from this backend;
	// attempts counts every upstream attempt (failed, failover, and hedge
	// attempts included); failures the attempts that ended in a transport
	// error or retryable 5xx. They are the registry's
	// route_backend_{requests,attempts,failures}:<url> counters.
	requests *metrics.Counter
	attempts *metrics.Counter
	failures *metrics.Counter
}

// URL returns the replica's base URL.
func (b *Backend) URL() string { return b.url }

// Healthy reports whether the replica is in rotation (breaker closed).
func (b *Backend) Healthy() bool { return b.ej.healthy() }

// Requests returns the delivered-response count.
func (b *Backend) Requests() int64 { return b.requests.Value() }

// Attempts returns the upstream attempt count, failed and hedged included.
func (b *Backend) Attempts() int64 { return b.attempts.Value() }

// Router proxies each request to the next healthy replica of a round-robin
// rotation.
type Router struct {
	cfg      Config
	backends []*Backend
	reg      *metrics.Registry
	rr       atomic.Uint64 // round-robin cursor
	// version is the fleet's agreed version triple, set by CheckBackends.
	version api.VersionResponse
	// Request-path instruments, resolved once.
	proxyAttempts *metrics.Histogram
	responses     *metrics.StatusCounters
}

// New builds a Router over cfg.Backends. Call CheckBackends before serving
// to verify the fleet agrees on versions, then Start to begin health polls.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("route: no backends configured")
	}
	reg := metrics.NewRegistry()
	r := &Router{
		cfg:           cfg,
		reg:           reg,
		proxyAttempts: reg.Histogram("route_proxy_attempts", metrics.LinearBuckets(1, 1, 8)),
		responses:     reg.StatusCounters("route_responses_total"),
	}
	seen := map[string]bool{}
	for _, raw := range cfg.Backends {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			return nil, errors.New("route: empty backend URL")
		}
		if strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("route: backend %s: https is not supported; replicas speak plain HTTP", u)
		}
		if !strings.HasPrefix(u, "http://") {
			u = "http://" + u
		}
		if seen[u] {
			return nil, fmt.Errorf("route: duplicate backend %s", u)
		}
		seen[u] = true
		// Breakers start closed: every replica is in rotation until the
		// first failure or probe verdict.
		r.backends = append(r.backends, &Backend{
			url:      u,
			ej:       newEjector(cfg.EjectThreshold, cfg.EjectWindow, cfg.Now),
			requests: reg.Counter("route_backend_requests:" + u),
			attempts: reg.Counter("route_backend_attempts:" + u),
			failures: reg.Counter("route_backend_failures:" + u),
		})
	}
	return r, nil
}

// Backends exposes the replicas and their counters (bench reporting).
func (r *Router) Backends() []*Backend { return r.backends }

// Registry exposes the router's metrics registry (bench/chaos reporting).
func (r *Router) Registry() *metrics.Registry { return r.reg }

// Version returns the fleet's agreed version triple (valid after
// CheckBackends).
func (r *Router) Version() api.VersionResponse { return r.version }

// CheckBackends queries every replica's /v1/version and refuses to front a
// fleet that disagrees on the cost-model (or table-format, or API) version:
// behind one router, identical requests must not return different optima
// depending on which replica answers. The agreed triple becomes the
// router's own /v1/version.
func (r *Router) CheckBackends(ctx context.Context) error {
	for i, b := range r.backends {
		v, err := r.fetchVersion(ctx, b)
		if err != nil {
			return fmt.Errorf("route: backend %s: %w", b.url, err)
		}
		if i == 0 {
			r.version = v
			continue
		}
		if v != r.version {
			return fmt.Errorf("route: version mismatch: %s reports %+v, %s reports %+v",
				r.backends[0].url, r.version, b.url, v)
		}
	}
	return nil
}

func (r *Router) fetchVersion(ctx context.Context, b *Backend) (api.VersionResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/v1/version", nil)
	if err != nil {
		return api.VersionResponse{}, err
	}
	resp, err := r.cfg.Transport.RoundTrip(req)
	if err != nil {
		return api.VersionResponse{}, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	_ = resp.Body.Close()
	if err != nil {
		return api.VersionResponse{}, fmt.Errorf("read /v1/version: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return api.VersionResponse{}, fmt.Errorf("/v1/version answered %d", resp.StatusCode)
	}
	var v api.VersionResponse
	if err := json.Unmarshal(body, &v); err != nil {
		return api.VersionResponse{}, fmt.Errorf("decode /v1/version: %w", err)
	}
	return v, nil
}

// Start launches the health loop: every HealthInterval each replica is
// probed on /readyz and /v1/version. The loop is authoritative in both
// directions — a replica that is unready, unreachable, or answering with a
// version other than the fleet's agreed triple is force-ejected; a probe
// success heals an ejected replica without waiting out its window. Stops
// when ctx is canceled.
func (r *Router) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(r.cfg.HealthInterval)
		defer t.Stop()
		for {
			r.probeAll(ctx)
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
}

func (r *Router) probeAll(ctx context.Context) {
	for _, b := range r.backends {
		if r.probe(ctx, b) {
			if b.ej.success() && r.cfg.Logf != nil {
				r.cfg.Logf("route: backend %s up", b.url)
			}
		} else if b.ej.eject() {
			r.reg.Counter("route_ejections_total").Inc()
			if r.cfg.Logf != nil {
				r.cfg.Logf("route: backend %s down", b.url)
			}
		}
	}
	r.reg.Gauge("route_backends_healthy").Set(int64(len(r.healthyBackends())))
}

func (r *Router) probe(ctx context.Context, b *Backend) bool {
	if err := faultinject.Active().Fire(SiteProbe); err != nil {
		return false
	}
	pctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := r.cfg.Transport.RoundTrip(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	if cerr := resp.Body.Close(); cerr != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	v, err := r.fetchVersion(ctx, b)
	if err != nil || v != r.version {
		if err == nil && r.cfg.Logf != nil {
			r.cfg.Logf("route: backend %s drifted to %+v (fleet agreed %+v)", b.url, v, r.version)
		}
		return false
	}
	return true
}

func (r *Router) healthyBackends() []*Backend {
	out := make([]*Backend, 0, len(r.backends))
	for _, b := range r.backends {
		if b.ej.healthy() {
			out = append(out, b)
		}
	}
	return out
}

// candidates returns every backend in one request's failover preference
// order: the whole fleet rotated from the round-robin cursor, so successive
// requests start on successive replicas. Breaker state is deliberately
// ignored here: it is consulted per attempt by attemptIter, so a backend
// ejected mid-request is skipped at hand-out time.
func (r *Router) candidates() []*Backend {
	n := len(r.backends)
	start := int((r.rr.Add(1) - 1) % uint64(n))
	out := make([]*Backend, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.backends[(start+i)%n])
	}
	return out
}

// attemptIter hands out one request's failover candidates in preference
// order, consulting each backend's breaker at hand-out time (so a backend
// ejected by a concurrent request is skipped, and a half-open probe slot is
// consumed by the request that takes it).
type attemptIter struct {
	cands []*Backend
	idx   int
}

// next returns the next admissible backend, and whether this attempt holds
// the backend's single half-open probe slot. nil when no candidate remains.
func (it *attemptIter) next() (*Backend, bool) {
	for it.idx < len(it.cands) {
		b := it.cands[it.idx]
		it.idx++
		if ok, probe := b.ej.admit(); ok {
			return b, probe
		}
	}
	return nil, false
}

// more reports whether any remaining candidate would currently be admitted,
// without consuming a probe slot — used to decide between retrying a
// retryable 5xx elsewhere and passing it through verbatim.
func (it *attemptIter) more() bool {
	for _, b := range it.cands[it.idx:] {
		if b.ej.wouldAdmit() {
			return true
		}
	}
	return false
}

// noteFailure records one failed upstream attempt against b's breaker,
// counting and logging the transition if this failure ejected the backend.
func (r *Router) noteFailure(b *Backend, why string) {
	b.failures.Inc()
	if b.ej.failure() {
		r.reg.Counter("route_ejections_total").Inc()
		if r.cfg.Logf != nil {
			r.cfg.Logf("route: backend %s ejected (%s)", b.url, why)
		}
	}
}

// noteSuccess records a delivered response, closing b's breaker.
func (r *Router) noteSuccess(b *Backend) {
	if b.ej.success() && r.cfg.Logf != nil {
		r.cfg.Logf("route: backend %s recovered", b.url)
	}
}
