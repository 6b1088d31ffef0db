// Package metrics is the process-wide observability substrate of the
// fusecu-serve service: lock-cheap counters, gauges with high-water marks,
// and fixed-bucket latency histograms, collected in a Registry that renders
// a Prometheus-style text exposition for the /metrics endpoint and the
// BENCH harness.
//
// The package is deliberately dependency-free (stdlib only) and minimal:
// instruments are created once per name by get-or-create lookups and then
// updated without touching the registry, so the hot request path costs an
// atomic add per counter and a short mutex hold per histogram observation.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0; negative deltas belong on a Gauge).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// StatusCounters is a family of counters named prefix:<status>, one per
// HTTP status code. Each member is looked up in the registry on its first
// increment, so it enters the exposition exactly when a direct Counter
// call would have created it; later increments cost an atomic load and an
// add, with no name formatting and no registry lock.
type StatusCounters struct {
	reg    *Registry
	prefix string
	byCode [1000]atomic.Pointer[Counter] // net/http status codes are 100-999
}

// StatusCounters returns the family of counters named prefix:<status>.
func (r *Registry) StatusCounters(prefix string) *StatusCounters {
	return &StatusCounters{reg: r, prefix: prefix}
}

// Inc adds one to the counter for status.
func (s *StatusCounters) Inc(status int) {
	if status < 0 || status >= len(s.byCode) {
		s.reg.Counter(s.prefix + ":" + strconv.Itoa(status)).Inc()
		return
	}
	c := s.byCode[status].Load()
	if c == nil {
		c = s.reg.Counter(s.prefix + ":" + strconv.Itoa(status))
		s.byCode[status].Store(c)
	}
	c.Inc()
}

// Gauge is an instantaneous level metric (e.g. in-flight requests) that
// additionally records its high-water mark, which the load harness uses to
// prove a concurrency level was actually sustained.
type Gauge struct {
	mu   sync.Mutex
	v    int64
	high int64
}

// Add moves the gauge by delta and returns the new level.
func (g *Gauge) Add(delta int64) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.v += delta
	if g.v > g.high {
		g.high = g.v
	}
	return g.v
}

// Set pins the gauge to an absolute level (e.g. resident-entry counts
// maintained by a cache), updating the high-water mark like Add.
func (g *Gauge) Set(v int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.v = v
	if g.v > g.high {
		g.high = g.v
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// High returns the highest level the gauge ever reached.
func (g *Gauge) High() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.high
}

// DefaultLatencyBuckets are the histogram bounds (milliseconds) used for
// per-endpoint latency: sub-millisecond cache hits through multi-second
// exhaustive searches.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
}

// LinearBuckets returns n evenly spaced histogram bounds starting at start
// (start, start+width, ...). Useful for small discrete distributions such
// as per-request upstream attempt counts.
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Histogram is a fixed-bucket distribution metric. Bounds are inclusive
// upper bounds in ascending order; an implicit +Inf bucket catches the tail.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; the last entry is the +Inf bucket
	sum    float64
	count  int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket containing it, the standard fixed-bucket estimate. The
// +Inf bucket is reported as the largest finite bound. Returns 0 when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var seen float64
	for i, c := range h.counts {
		if float64(c)+seen < rank {
			seen += float64(c)
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if c == 0 {
			return h.bounds[i]
		}
		return lo + (h.bounds[i]-lo)*(rank-seen)/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshot returns bounds and counts for rendering.
func (h *Histogram) snapshot() (bounds []float64, counts []int64, sum float64, count int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.bounds...), append([]int64(nil), h.counts...), h.sum, h.count
}

// Registry is a named collection of instruments. All lookups are
// get-or-create: the first caller defines the instrument, later callers
// share it. Names should be snake_case with optional ":"-separated label
// suffixes (e.g. "http_requests_total:optimize:200").
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (nil bounds select DefaultLatencyBuckets). Later callers get
// the existing instrument regardless of the bounds they pass.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if bounds == nil {
			bounds = DefaultLatencyBuckets()
		}
		h = &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]int64, len(bounds)+1)}
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns every scalar value (counters, gauge levels and highs,
// histogram counts/sums/p50/p95/p99) keyed by name — the machine-readable
// twin of WriteText used by tests and the bench harness.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	for name, c := range r.countersCopy() {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gaugesCopy() {
		out[name] = float64(g.Value())
		out[name+"_high"] = float64(g.High())
	}
	for name, h := range r.histogramsCopy() {
		_, _, sum, count := h.snapshot()
		out[name+"_count"] = float64(count)
		out[name+"_sum"] = sum
		out[name+"_p50"] = h.Quantile(0.50)
		out[name+"_p95"] = h.Quantile(0.95)
		out[name+"_p99"] = h.Quantile(0.99)
	}
	return out
}

func (r *Registry) countersCopy() map[string]*Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

func (r *Registry) gaugesCopy() map[string]*Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		out[k] = v
	}
	return out
}

func (r *Registry) histogramsCopy() map[string]*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		out[k] = v
	}
	return out
}

// WriteText renders a deterministic (name-sorted) Prometheus-style text
// exposition: counters and gauges as "name value" lines, histograms as
// cumulative "name_bucket{le=...}" lines plus _sum and _count.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	// Histograms render their buckets from live instruments; scalar keys
	// derived above (p50 etc.) are rendered as plain samples too, which is
	// convenient for scrapers that do not reconstruct quantiles.
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %g\n", name, snap[name]); err != nil {
			return err
		}
	}
	hs := r.histogramsCopy()
	hnames := make([]string, 0, len(hs))
	for n := range hs {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		bounds, counts, _, _ := hs[name].snapshot()
		var cum int64
		for i, b := range bounds {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", b), cum); err != nil {
				return err
			}
		}
		cum += counts[len(bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
			return err
		}
	}
	return nil
}
