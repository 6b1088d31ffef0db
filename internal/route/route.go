// Package route implements fusecu-route: a shape-affinity HTTP router in
// front of a fleet of fusecu-serve replicas.
//
// Routing is consistent hashing on the request's shape hash (api.ShapeHash
// with an empty grid), so identically shaped operators always hit the same
// replica. Replicas no longer keep per-shape state, so the affinity buys
// nothing beyond a stable spread; it remains until routing moves to plain
// selection over the healthy set. Requests without an operator (e.g.
// /v1/evaluate) get a model-derived affinity key; requests with no key at
// all round-robin.
//
// The ring uses virtual nodes so a replica joining or leaving moves only
// ~1/N of the key space. Because every /v1/* request is a pure,
// deterministic, fully-buffered optimization query, the router treats
// replica failure as retryable: an upstream transport error or retryable
// 5xx fails over to the next ring successor (round-robin order for keyless
// requests) under a per-request attempt budget, so a replica dying
// mid-request still yields a single successful response. Optionally, an
// affinity-keyed request that has not answered within HedgeAfter launches a
// hedge to the next ring owner; the first response wins and the loser is
// canceled.
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
// error envelopes, and Retry-After headers reach the client byte for byte.
// The one exception is a retryable 5xx with a healthy alternative left in
// the candidate walk — that response is discarded and the request retried;
// when no alternative remains the 5xx passes through verbatim.
package route

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
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
	// VNodes is the number of ring points per backend (default 64).
	VNodes int
	// HTTPClient issues proxy and probe requests; defaults to a dedicated
	// client with a 30s timeout.
	HTTPClient *http.Client
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
	// HedgeAfter, when positive, duplicates an affinity-keyed request to
	// the next ring owner if the primary has not answered within the delay;
	// the first response wins and the loser is canceled. Default 0 = off.
	HedgeAfter time.Duration
	// Now is the clock consulted by the ejection breakers; nil means
	// time.Now. Tests substitute a fake clock for deterministic
	// window/half-open transitions.
	Now func() time.Time
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 30 * time.Second}
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
	// error or retryable 5xx; affinity the delivered subset routed by shape
	// affinity (vs round-robin fallback).
	requests atomic.Int64
	attempts atomic.Int64
	failures atomic.Int64
	affinity atomic.Int64
}

// URL returns the replica's base URL.
func (b *Backend) URL() string { return b.url }

// Healthy reports whether the replica is in rotation (breaker closed).
func (b *Backend) Healthy() bool { return b.ej.healthy() }

// Requests returns the delivered-response count.
func (b *Backend) Requests() int64 { return b.requests.Load() }

// Attempts returns the upstream attempt count, failed and hedged included.
func (b *Backend) Attempts() int64 { return b.attempts.Load() }

// ringPoint is one virtual node: a position on the hash circle owned by a
// backend.
type ringPoint struct {
	hash    uint64
	backend *Backend
}

// Router proxies requests to the replica owning each request's shape hash.
type Router struct {
	cfg      Config
	backends []*Backend
	ring     []ringPoint // sorted by hash
	reg      *metrics.Registry
	rr       atomic.Uint64 // round-robin cursor for keyless requests
	// version is the fleet's agreed version triple, set by CheckBackends.
	version api.VersionResponse
}

// New builds a Router over cfg.Backends. Call CheckBackends before serving
// to verify the fleet agrees on versions, then Start to begin health polls.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("route: no backends configured")
	}
	r := &Router{cfg: cfg, reg: metrics.NewRegistry()}
	seen := map[string]bool{}
	for _, raw := range cfg.Backends {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			return nil, errors.New("route: empty backend URL")
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			u = "http://" + u
		}
		if seen[u] {
			return nil, fmt.Errorf("route: duplicate backend %s", u)
		}
		seen[u] = true
		// Breakers start closed: every replica is in rotation until the
		// first failure or probe verdict.
		b := &Backend{url: u, ej: newEjector(cfg.EjectThreshold, cfg.EjectWindow, cfg.Now)}
		r.backends = append(r.backends, b)
		for v := 0; v < cfg.VNodes; v++ {
			r.ring = append(r.ring, ringPoint{hash: hashPoint(fmt.Sprintf("%s#%d", u, v)), backend: b})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool { return r.ring[i].hash < r.ring[j].hash })
	return r, nil
}

// Backends exposes the replicas and their counters (bench reporting).
func (r *Router) Backends() []*Backend { return r.backends }

// Registry exposes the router's metrics registry (bench/chaos reporting).
func (r *Router) Registry() *metrics.Registry { return r.reg }

// Version returns the fleet's agreed version triple (valid after
// CheckBackends).
func (r *Router) Version() api.VersionResponse { return r.version }

// hashPoint maps a string onto the ring circle.
func hashPoint(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

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
	resp, err := r.cfg.HTTPClient.Do(req)
	if err != nil {
		return api.VersionResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.VersionResponse{}, fmt.Errorf("/v1/version answered %d", resp.StatusCode)
	}
	var v api.VersionResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&v); err != nil {
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
	resp, err := r.cfg.HTTPClient.Do(req)
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

// candidates returns every backend in a request's failover preference
// order. Affinity keys walk the ring from the key's position — the first
// entry is the key's owner at full fleet health, followers are its ring
// successors, so failover lands the key on the replica that inherits it if
// the owner left the ring. Keyless requests rotate the whole fleet from the
// round-robin cursor. Breaker state is deliberately ignored here: it is
// consulted per attempt by attemptIter, so a backend ejected mid-request is
// skipped at hand-out time.
func (r *Router) candidates(key string, withKey bool) []*Backend {
	n := len(r.backends)
	if !withKey {
		start := int(r.rr.Add(1)-1) % n
		out := make([]*Backend, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, r.backends[(start+i)%n])
		}
		return out
	}
	h := hashPoint(key)
	start := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	out := make([]*Backend, 0, n)
	seen := make(map[*Backend]bool, n)
	for i := 0; i < len(r.ring) && len(out) < n; i++ {
		b := r.ring[(start+i)%len(r.ring)].backend
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// OwnerURL reports which backend owns an affinity key's ring position,
// breaker state aside — the replica the key routes to at full fleet health.
// The chaos harness uses it to aim failures at a specific key's replica.
func (r *Router) OwnerURL(key string) string {
	return r.candidates(key, true)[0].url
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
	b.failures.Add(1)
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

// affinityKey extracts the routing key from a request body: the shape hash
// (empty grid — lattice-independent) of the request's operator, the first
// operator of a chain, or a model-derived key for /v1/evaluate. ok=false
// means no key (round-robin).
func affinityKey(body []byte) (string, bool) {
	var peek struct {
		Op    *api.OpSpec  `json:"op"`
		Ops   []api.OpSpec `json:"ops"`
		Model string       `json:"model"`
		Seq   int          `json:"seq"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		return "", false
	}
	switch {
	case peek.Op != nil:
		return api.ShapeHash(peek.Op.M, peek.Op.K, peek.Op.L, ""), true
	case len(peek.Ops) > 0:
		return api.ShapeHash(peek.Ops[0].M, peek.Ops[0].K, peek.Ops[0].L, ""), true
	case peek.Model != "":
		return fmt.Sprintf("model|%s|%d", peek.Model, peek.Seq), true
	}
	return "", false
}
