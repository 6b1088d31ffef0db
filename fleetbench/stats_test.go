package main

import (
	"math"
	"net/http"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// ramp returns 1..n shuffled deterministically.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64((i*7919)%n + 1)
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
	}{
		{5000, 0.99}, // p99 has 50 samples beyond it
		{1000, 0.99}, // exactly 10 beyond
		{500, 0.98},  // p99 would leave 5 beyond
		{40, 0.75},
	} {
		got := tailPercentile(ramp(tc.n), 0.99)
		if math.Abs(got.Q-tc.wantQ) > 1e-9 || got.N != tc.n {
			t.Errorf("n=%d: q=%v n=%d, want q=%v", tc.n, got.Q, got.N, tc.wantQ)
		}
		// Values are 1..n, so the count beyond the value is n − value.
		if beyond := tc.n - int(got.Value); beyond < minBeyond {
			t.Errorf("n=%d: p%v = %v leaves %d samples beyond, want ≥ %d", tc.n, 100*got.Q, got.Value, beyond, minBeyond)
		}
	}
}

func TestTailPercentileFallsBackToMedian(t *testing.T) {
	got := tailPercentile([]float64{5, 1, 3}, 0.99)
	if got.Q != 0.5 || got.Value != 3 || got.N != 3 {
		t.Errorf("tail of 3 samples = %+v, want the median", got)
	}
	if got := tailPercentile(nil, 0.99); got != (tail{}) {
		t.Errorf("tail of no samples = %+v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping counted once", []interval{{110, 150}, {140, 160}}, 50},
		{"nested counted once", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to the parent", []interval{{50, 120}, {180, 260}}, 60},
		{"outside the parent", []interval{{0, 100}, {200, 300}}, 100},
		{"covering the parent", []interval{{90, 210}}, 0},
		{"unsorted", []interval{{160, 170}, {110, 130}, {125, 140}}, 60},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimesOfReplayedChain(t *testing.T) {
	// A request replayed layer by layer: each call is timed after the
	// previous one, and a child is charged against its parent's start.
	spans := []span{
		{ID: 1, Parent: 0, Layer: "route", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Layer: "client", Start: 1000, End: 1700},
		{ID: 3, Parent: 2, Layer: "service", Start: 1700, End: 1900},
		{ID: 4, Parent: 3, Layer: "core", Start: 1900, End: 2050},
		{ID: 5, Parent: 4, Layer: "cost", Start: 2050, End: 2080},
		{ID: 6, Parent: 4, Layer: "cost", Start: 2080, End: 2100},
	}
	got := selfTimes(spans)
	want := map[string]int64{"route": 300, "client": 500, "service": 50, "core": 100, "cost": 50}
	var sum int64
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("%s self time = %d, want %d", layer, got[layer], w)
		}
		sum += got[layer]
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %d, want the root's %d", sum, spans[0].dur())
	}
}

func TestWindows(t *testing.T) {
	recs := make([]record, 2500)
	for i := range recs {
		// Completions every millisecond, listed out of order; one failure.
		recs[i] = record{end: time.Duration(2500-i) * time.Millisecond, latency: time.Duration(i%10+1) * time.Millisecond, status: http.StatusOK}
	}
	recs[0].status = http.StatusInternalServerError
	ws := windowed(recs)
	if len(ws) != 2 || len(ws[0]) != 1250 || len(ws[1]) != 1250 {
		t.Fatalf("windows of sizes %d", len(ws))
	}
	for i, w := range ws {
		for j := 1; j < len(w); j++ {
			if w[j].end < w[j-1].end {
				t.Fatalf("window %d is not in completion order", i)
			}
		}
	}
	m := measureWindows(ws)
	if math.Abs(m[0].rps-1000) > 1e-9 || math.Abs(m[1].rps-999.2) > 1e-9 {
		t.Errorf("window rates %v, %v; want 1000 and 999.2 (one failure in 1.25 s)", m[0].rps, m[1].rps)
	}
	if m[0].p50 != 5.5 || m[0].tail.Q != 0.99 || m[0].tail.Value != 10 {
		t.Errorf("window 0: p50 %v, tail %+v", m[0].p50, m[0].tail)
	}
	if ws := windowed(recs[:999]); len(ws) != 1 || len(ws[0]) != 999 {
		t.Errorf("a short run is not one window")
	}
}
