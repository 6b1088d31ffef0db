package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := r.Counter("reqs").Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 16000 {
		t.Fatalf("Value = %d, want 16000", got)
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight")
	g.Add(3)
	g.Add(4)
	g.Add(-5)
	if got := g.Value(); got != 2 {
		t.Fatalf("Value = %d, want 2", got)
	}
	if got := g.High(); got != 7 {
		t.Fatalf("High = %d, want 7", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(50) // third bucket
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 1 {
		t.Fatalf("p50 = %v, want within first bucket (0,1]", q)
	}
	if q := h.Quantile(0.99); q <= 10 || q > 100 {
		t.Fatalf("p99 = %v, want within third bucket (10,100]", q)
	}
	if h.Quantile(0.0) < 0 {
		t.Fatal("q=0 negative")
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	h.Observe(math.Inf(1) - 1) // lands in +Inf bucket
	h.Observe(5)
	if q := h.Quantile(0.99); q != 2 {
		t.Fatalf("overflow quantile = %v, want clamped to last bound 2", q)
	}
}

func TestSnapshotAndWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(2)
	r.Gauge("b_level").Add(3)
	r.Histogram("c_ms", []float64{1, 10}).Observe(4)

	snap := r.Snapshot()
	for _, key := range []string{"a_total", "b_level", "b_level_high", "c_ms_count", "c_ms_sum", "c_ms_p50", "c_ms_p95", "c_ms_p99"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("Snapshot missing %q", key)
		}
	}

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"a_total 2", "b_level 3", "c_ms_count 1", `c_ms_bucket{le="10"} 1`, `c_ms_bucket{le="+Inf"} 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q in:\n%s", want, out)
		}
	}

	// Determinism: two renders must be byte-identical.
	var sb2 strings.Builder
	if err := r.WriteText(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatal("WriteText is not deterministic")
	}
}

func TestDefaultBuckets(t *testing.T) {
	b := DefaultLatencyBuckets()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not ascending at %d: %v", i, b)
		}
	}
	h := NewRegistry().Histogram("x", nil)
	h.Observe(3.3)
	if h.Count() != 1 {
		t.Fatal("default-bucket histogram dropped a sample")
	}
}

// TestStatusCounters: a family member is the registry counter of the same
// name, absent from the exposition until its first increment, and exact
// under concurrent increments (codes outside 0-999 included).
func TestStatusCounters(t *testing.T) {
	r := NewRegistry()
	fam := r.StatusCounters("responses")
	var buf strings.Builder
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "responses") {
		t.Fatalf("untouched family is in the exposition:\n%s", buf.String())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				fam.Inc(200)
				fam.Inc(1200)
			}
		}()
	}
	wg.Wait()
	fam.Inc(503)
	for name, want := range map[string]int64{"responses:200": 8000, "responses:1200": 8000, "responses:503": 1} {
		if got := r.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
