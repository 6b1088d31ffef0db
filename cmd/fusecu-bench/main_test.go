package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestRunWritesConsistentReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(out, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.IdenticalResults {
		t.Fatal("engines disagreed on the sweep")
	}
	var names []string
	for _, e := range rep.Engines {
		names = append(names, e.Name)
		if e.WallMs <= 0 {
			t.Errorf("%s: wall %.3fms", e.Name, e.WallMs)
		}
	}
	if want := []string{"reference-sequential", "dat", "search-sweep-analytic"}; !slices.Equal(names, want) {
		t.Fatalf("engines = %v, want %v", names, want)
	}
	if rep.Cores <= 0 {
		t.Fatalf("cores not resolved: %d", rep.Cores)
	}
	// DAT counts the lattice visits the reference prices, so the two
	// report the same total; the analytic engine runs no lattice stage at
	// all, so it sits far below it.
	ref, dat, ana := rep.Engines[0], rep.Engines[1], rep.Engines[2]
	if dat.Evaluations != ref.Evaluations {
		t.Errorf("dat visits %d, reference %d", dat.Evaluations, ref.Evaluations)
	}
	if ana.Evaluations <= 0 || ana.Evaluations >= ref.Evaluations {
		t.Errorf("analytic engine visits %d (lattice sum %d)", ana.Evaluations, ref.Evaluations)
	}
	// The polish-drop gate holds the analytic engine to pricing at least
	// 10× fewer candidates than the GA, over the same sweep points.
	if rep.PolishEvalsGA <= 0 || rep.PolishEvalsAnalytic <= 0 {
		t.Fatalf("polish eval counts not reported: GA %d, analytic %d",
			rep.PolishEvalsGA, rep.PolishEvalsAnalytic)
	}
	if rep.PolishEvalDrop < minPolishDrop {
		t.Errorf("polish eval drop %.1fx below the %dx floor", rep.PolishEvalDrop, minPolishDrop)
	}
	if ana.Evaluations != rep.PolishEvalsAnalytic {
		t.Errorf("analytic evals %d != analytic engine evals %d", rep.PolishEvalsAnalytic, ana.Evaluations)
	}
	if rep.SpeedupDAT == nil || *rep.SpeedupDAT <= 0 ||
		rep.SpeedupAnalytic == nil || *rep.SpeedupAnalytic <= 0 {
		t.Errorf("degenerate speedups: %+v", rep)
	}
}

// TestCLIUsageErrors: usage errors exit 2 with a diagnostic on stderr, and
// every retired flag — the search-pool size and the serve-load wave's and
// chaos schedule's settings — fails startup loudly rather than being
// silently ignored.
func TestCLIUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"retired workers", []string{"-workers", "4"}},
		{"retired serve-load", []string{"-serve-load"}},
		{"retired serve-out", []string{"-serve-out", "out.json"}},
		{"retired pprof", []string{"-pprof", "127.0.0.1:6060"}},
		{"retired clients", []string{"-clients", "96"}},
		{"retired max-inflight", []string{"-max-inflight", "64"}},
		{"retired replicas", []string{"-replicas", "3"}},
		{"retired chaos-seed", []string{"-chaos-seed", "1"}},
		{"retired chaos-kills", []string{"-chaos-kills", "2"}},
		{"retired hedge-after", []string{"-hedge-after", "25ms"}},
		{"retired proxy-attempts", []string{"-proxy-attempts", "3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if code := cli(tc.args, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if stderr.Len() == 0 {
				t.Fatal("usage error produced no diagnostic")
			}
		})
	}
}

// TestReportPathByMode: the report path defaults by mode, so a bare -chaos
// writes the chaos report and never overwrites the sweep's.
func TestReportPathByMode(t *testing.T) {
	cases := []struct {
		args []string
		want options
	}{
		{nil, options{out: "BENCH_search.json"}},
		{[]string{"-full"}, options{out: "BENCH_search.json", full: true}},
		{[]string{"-chaos"}, options{out: "BENCH_serve_chaos.json", chaos: true}},
		{[]string{"-chaos", "-out", "x.json"}, options{out: "x.json", chaos: true}},
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		got, err := parseArgs(tc.args, &stderr)
		if err != nil || got != tc.want {
			t.Errorf("parseArgs(%q) = %+v, %v; want %+v (stderr: %s)", tc.args, got, err, tc.want, stderr.String())
		}
	}
}

// TestRatioGuards pins the speedup guard: degenerate wall times must yield
// nil (JSON null), never Inf or NaN, and sane inputs the plain quotient.
func TestRatioGuards(t *testing.T) {
	if r := ratio(0, time.Second); r != nil {
		t.Errorf("ratio(0, 1s) = %v, want nil", *r)
	}
	if r := ratio(time.Second, 0); r != nil {
		t.Errorf("ratio(1s, 0) = %v, want nil", *r)
	}
	if r := ratio(time.Second, minRatioWall-1); r != nil {
		t.Errorf("ratio(1s, sub-floor) = %v, want nil", *r)
	}
	if r := ratio(minRatioWall-1, time.Second); r != nil {
		t.Errorf("ratio(sub-floor, 1s) = %v, want nil", *r)
	}
	r := ratio(2*time.Second, time.Second)
	if r == nil || *r != 2 {
		t.Errorf("ratio(2s, 1s) = %v, want 2", r)
	}
	// Whatever the guard returns must always survive JSON marshalling.
	for _, d := range []time.Duration{0, 1, minRatioWall, time.Second} {
		if _, err := json.Marshal(report{SpeedupDAT: ratio(time.Second, d)}); err != nil {
			t.Errorf("marshal with opt=%v: %v", d, err)
		}
	}
}

func TestSweepSelection(t *testing.T) {
	ops, buffers := sweep(false)
	fullOps, fullBuffers := sweep(true)
	if len(fullOps) <= 0 || len(fullBuffers) <= len(buffers) {
		t.Fatalf("full sweep (%d ops, %d buffers) not larger than smoke sweep (%d, %d)",
			len(fullOps), len(fullBuffers), len(ops), len(buffers))
	}
	if fullBuffers[0] != 32<<10 || fullBuffers[len(fullBuffers)-1] != 32<<20 {
		t.Fatalf("full sweep buffers = %v", fullBuffers)
	}
}
