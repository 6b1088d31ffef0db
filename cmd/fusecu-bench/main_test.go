package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRunWritesConsistentReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(out, false, 2); err != nil {
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
	if len(rep.Engines) != 5 {
		t.Fatalf("engines = %d", len(rep.Engines))
	}
	if rep.Engines[3].Name != "search-sweep-table" {
		t.Fatalf("fourth engine = %q, want search-sweep-table", rep.Engines[3].Name)
	}
	if rep.Engines[4].Name != "search-sweep-analytic" {
		t.Fatalf("fifth engine = %q, want search-sweep-analytic", rep.Engines[4].Name)
	}
	if rep.Cores <= 0 || rep.Workers <= 0 {
		t.Fatalf("cores/workers not resolved: %d/%d", rep.Cores, rep.Workers)
	}
	refEvals := rep.Engines[0].Evaluations + rep.Engines[0].CacheHits
	for _, e := range rep.Engines {
		if e.WallMs <= 0 {
			t.Errorf("%s: wall %.3fms", e.Name, e.WallMs)
		}
		if e.Name == "search-sweep-analytic" {
			// The analytic engine runs no lattice stage at all: its visit
			// count is its whole advantage, so it sits far below the
			// conserved lattice sum and is never served from a table.
			if e.Evaluations <= 0 || e.Evaluations >= refEvals || e.CacheHits != 0 {
				t.Errorf("analytic engine visits %d/%d hits (lattice sum %d)",
					e.Evaluations, e.CacheHits, refEvals)
			}
			continue
		}
		// The table reassigns visits between the counters but must
		// conserve their sum across the lattice-backed engines.
		if e.Evaluations+e.CacheHits != refEvals {
			t.Errorf("%s: visits %d, reference %d", e.Name, e.Evaluations+e.CacheHits, refEvals)
		}
	}
	for _, e := range rep.Engines {
		if served := e.CacheHits != 0; served != (e.Name == "search-sweep-table") {
			t.Errorf("%s: %d table-served visits", e.Name, e.CacheHits)
		}
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
	if rep.Engines[4].Evaluations != rep.PolishEvalsAnalytic {
		t.Errorf("analytic evals %d != analytic engine evals %d",
			rep.PolishEvalsAnalytic, rep.Engines[4].Evaluations)
	}
	for i, e := range rep.Engines {
		want := 1
		if e.Name == "parallel" {
			want = rep.Workers
		}
		if e.Workers != want {
			t.Errorf("engine %d (%s): workers %d, want %d", i, e.Name, e.Workers, want)
		}
	}
	if rep.SpeedupPruned == nil || *rep.SpeedupPruned <= 0 ||
		rep.SpeedupTable == nil || *rep.SpeedupTable <= 0 {
		t.Errorf("degenerate sequential speedups: %+v", rep)
	}
	// The parallel ratio only means something when the engine could actually
	// parallelize; on a single schedulable core it must be suppressed rather
	// than reported as scaling.
	if rep.SingleCore {
		if rep.SpeedupParallel != nil {
			t.Errorf("single-core run reported speedup_parallel %v, want null", *rep.SpeedupParallel)
		}
	} else if rep.SpeedupParallel == nil || *rep.SpeedupParallel <= 0 {
		t.Errorf("multi-core run suppressed speedup_parallel: %+v", rep)
	}
}

// TestRunSingleWorkerNullsParallelSpeedup pins the misleading-report fix: a
// run whose parallel engine cannot parallelize (-workers=1) must flag
// single_core and write speedup_parallel as JSON null, not a ~1.0 "speedup".
func TestRunSingleWorkerNullsParallelSpeedup(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(out, false, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if got := string(raw["speedup_parallel"]); got != "null" {
		t.Errorf("speedup_parallel = %s, want null", got)
	}
	if got := string(raw["single_core"]); got != "true" {
		t.Errorf("single_core = %s, want true", got)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 1 {
		t.Errorf("effective workers = %d, want 1", rep.Workers)
	}
	for _, e := range rep.Engines {
		if e.Workers != 1 {
			t.Errorf("%s: workers %d, want 1", e.Name, e.Workers)
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
		if _, err := json.Marshal(report{SpeedupParallel: ratio(time.Second, d)}); err != nil {
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

func TestServeLoadWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "serve.json")
	if err := serveLoad(out, 24, 16, 1, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep serveReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.IdenticalResults {
		t.Fatal("served results diverged from the reference engine")
	}
	if rep.OK == 0 || rep.Failed != 0 || rep.OK+rep.Shed != rep.Clients {
		t.Fatalf("wave accounting wrong: %+v", rep)
	}
	if rep.InflightHighWater <= 0 || rep.InflightHighWater > int64(rep.MaxInFlight) {
		t.Fatalf("in-flight high water %d outside (0, %d]", rep.InflightHighWater, rep.MaxInFlight)
	}
	if rep.WallMs <= 0 || rep.LatencyP50Ms <= 0 {
		t.Errorf("degenerate timing: %+v", rep)
	}
	if len(rep.PerReplica) != 1 || rep.PerReplica[0].Requests == 0 {
		t.Errorf("per-replica breakdown wrong: %+v", rep.PerReplica)
	}
}

// TestServeLoadRoutedFleet is the acceptance run in miniature: a 3-replica
// fleet behind the round-robin router, every answer bit-identical to the
// reference engine, and the wave spread over more than one replica.
func TestServeLoadRoutedFleet(t *testing.T) {
	out := filepath.Join(t.TempDir(), "serve.json")
	if err := serveLoad(out, 48, 16, 3, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep serveReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.IdenticalResults || rep.Failed != 0 {
		t.Fatalf("routed wave failed: %+v", rep)
	}
	if rep.Replicas != 3 || len(rep.PerReplica) != 3 {
		t.Fatalf("replicas = %d/%d, want 3", rep.Replicas, len(rep.PerReplica))
	}
	var busy int
	for _, rr := range rep.PerReplica {
		if rr.Requests > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("routing pinned the whole wave to %d replica(s)", busy)
	}
}
