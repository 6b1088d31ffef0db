// Command fusecu-bench times the Fig. 9 search-validation sweep under five
// engine configurations and writes a machine-readable report:
//
//   - reference-sequential: DAT on the frozen pre-optimization engines
//     (unpruned coarse scan, per-candidate cost.Evaluate) plus the GA — the
//     honest baseline.
//   - pruned: footprint-pruned scans priced through the batch kernel at
//     every buffer point (experiments.Fig9).
//   - parallel: the same, with (operator, buffer) points fanned across a
//     worker pool (experiments.Fig9Parallel).
//   - search-sweep-table: one footprint-indexed candidate table per operator,
//     answering every buffer point by binary search over the table
//     (experiments.Fig9Sweep).
//   - search-sweep-analytic: the exact analytic optimizer alone — no
//     lattice, no GA; hundreds of exact evaluations per point
//     (experiments.Fig9Analytic). It is held to the principle line, not to
//     DAT: DAT's GA lands above the line at some small buffers by design.
//
// The report (default BENCH_search.json) records wall time, cost-model
// invocations, and table-served visits (cache_hits) per engine, whether
// the four DAT engines produced bit-identical results and the analytic
// engine matched the principle line at every point — which they must —
// and the polish evaluation drop: the GA's evaluation count over the
// analytic engine's across the same sweep points, gated ≥ 10×.
//
//	fusecu-bench -out BENCH_search.json        # reduced sweep (CI smoke)
//	fusecu-bench -full -out BENCH_search.json  # the paper's 32KiB–32MiB sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"fusecu/internal/core"
	"fusecu/internal/experiments"
	"fusecu/internal/op"
	"fusecu/internal/search"
)

type engineReport struct {
	Name   string  `json:"name"`
	WallMs float64 `json:"wall_ms"`
	// Workers is the worker count the engine effectively ran with: the pool
	// size clamped to schedulable cores for the parallel engine, 1 for the
	// sequential ones.
	Workers     int   `json:"workers"`
	Evaluations int64 `json:"evaluations"`
	CacheHits   int64 `json:"cache_hits"`
}

type report struct {
	Benchmark    string         `json:"benchmark"`
	FullSweep    bool           `json:"full_sweep"`
	Ops          []string       `json:"ops"`
	BufferPoints int            `json:"buffer_points"`
	Cores        int            `json:"cores"`
	Workers      int            `json:"workers"`
	Engines      []engineReport `json:"engines"`
	// Speedups are reference-sequential wall time divided by each optimized
	// engine's wall time. A speedup is null — never Inf or NaN — when either
	// wall time is too close to zero for the ratio to mean anything, and
	// speedup_parallel is additionally null when the parallel engine could
	// not actually parallelize (single_core below): a 1-worker "parallel"
	// ratio would quietly report scheduling noise as scaling.
	SpeedupPruned   *float64 `json:"speedup_pruned"`
	SpeedupParallel *float64 `json:"speedup_parallel"`
	SpeedupTable    *float64 `json:"speedup_table"`
	SpeedupAnalytic *float64 `json:"speedup_analytic"`
	// SingleCore is true when the parallel engine effectively ran one
	// worker (single-core container or -workers=1), so no parallel-scaling
	// conclusion can be drawn from this report.
	SingleCore bool `json:"single_core,omitempty"`
	// IdenticalResults is true iff every (operator, buffer) point's
	// principle MA, search MA, and total candidate-visit count agree across
	// the lattice-backed DAT engines, and the analytic engine's search MA
	// equals the principle MA at every point.
	IdenticalResults bool `json:"identical_results"`
	// PolishEvalsGA / PolishEvalsAnalytic sum, over the same sweep points,
	// the evaluation counts of the GA and of the analytic engine; their
	// ratio PolishEvalDrop is gated ≥ minPolishDrop by run().
	PolishEvalsGA       int64   `json:"polish_evals_ga"`
	PolishEvalsAnalytic int64   `json:"polish_evals_analytic"`
	PolishEvalDrop      float64 `json:"polish_eval_drop"`
}

// minPolishDrop is the acceptance floor for the analytic engine: its
// evaluation count must be at least this factor below the GA's over the
// sweep, or the bench fails loudly.
const minPolishDrop = 10

func main() {
	var (
		out     = flag.String("out", "BENCH_search.json", "output report path (search sweep mode)")
		full    = flag.Bool("full", false, "run the paper's full 32KiB-32MiB sweep instead of the reduced smoke sweep")
		workers = flag.Int("workers", 0, "workers for the parallel engine (0 = GOMAXPROCS)")
		load    = flag.Bool("serve-load", false, "benchmark the fusecu-serve HTTP service under concurrent /v1/search load instead")
		loadOut = flag.String("serve-out", "BENCH_serve.json", "output report path (-serve-load mode)")
		clients = flag.Int("clients", 96, "concurrent clients for -serve-load")
		maxInFl = flag.Int("max-inflight", 64, "service admission ceiling for -serve-load (per replica)")
		repl    = flag.Int("replicas", 1, "fusecu-serve replicas behind the shape-affinity router for -serve-load")
		tdir    = flag.String("table-dir", "", "pregenerated candidate-table directory for -serve-load (fusecu-tablegen -set bench output); the wave then asserts zero runtime table builds")
		pprofAt = flag.String("pprof", "", "expose net/http/pprof on this separate listener during -serve-load (empty = disabled)")
		chaos   = flag.Bool("chaos", false, "with -serve-load: run the seeded chaos schedule — replicas hard-killed and restarted mid-wave, one table artifact corrupted — and assert the failover/ejection/recovery contract")
		cseed   = flag.Int64("chaos-seed", 1, "seed for the chaos schedule's victim order and injected-fault RNG")
		ckills  = flag.Int("chaos-kills", 2, "kill/restart cycles in the chaos schedule")
		hedge   = flag.Duration("hedge-after", 0, "router hedge delay for affinity-keyed requests in chaos mode (0 = hedging off)")
		proxyAt = flag.Int("proxy-attempts", 3, "router per-request upstream attempt budget in chaos mode")
	)
	flag.Parse()
	if *chaos && !*load {
		fmt.Fprintln(os.Stderr, "fusecu-bench: -chaos requires -serve-load")
		os.Exit(2)
	}
	if *load {
		var err error
		if *chaos {
			err = chaosLoad(*loadOut, *clients, *maxInFl, *workers, *repl, *tdir, *cseed, *ckills, *hedge, *proxyAt)
		} else {
			err = serveLoad(*loadOut, *clients, *maxInFl, *workers, *repl, *tdir, *pprofAt)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fusecu-bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*out, *full, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "fusecu-bench:", err)
		os.Exit(1)
	}
}

func run(out string, full bool, workers int) error {
	ops, buffers := sweep(full)

	// Cores is the schedulable parallelism (GOMAXPROCS may be capped below
	// NumCPU in containers); Workers is the count the parallel engine
	// effectively ran with — the resolved pool size clamped to cores, since
	// goroutines beyond GOMAXPROCS cannot add parallelism to a CPU-bound
	// scan.
	cores := runtime.GOMAXPROCS(0)
	effectiveWorkers := workers
	if effectiveWorkers <= 0 || effectiveWorkers > cores {
		effectiveWorkers = cores
	}
	rep := report{
		Benchmark:    "fig9-search-sweep",
		FullSweep:    full,
		BufferPoints: len(buffers),
		Cores:        cores,
		Workers:      effectiveWorkers,
		SingleCore:   effectiveWorkers == 1,
	}
	for _, mm := range ops {
		rep.Ops = append(rep.Ops, mm.String())
	}

	refStart := time.Now()
	ref, err := referenceFig9(ops, buffers, 1)
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	refWall := time.Since(refStart)

	prunedStart := time.Now()
	pruned, err := experiments.Fig9(ops, buffers, 1)
	if err != nil {
		return fmt.Errorf("pruned engine: %w", err)
	}
	prunedWall := time.Since(prunedStart)

	parStart := time.Now()
	par, err := experiments.Fig9Parallel(ops, buffers, 1, workers)
	if err != nil {
		return fmt.Errorf("parallel engine: %w", err)
	}
	parWall := time.Since(parStart)

	tabStart := time.Now()
	tab, err := experiments.Fig9Sweep(ops, buffers, 1)
	if err != nil {
		return fmt.Errorf("table-sweep engine: %w", err)
	}
	tabWall := time.Since(tabStart)

	anaStart := time.Now()
	ana, err := experiments.Fig9Analytic(ops, buffers)
	if err != nil {
		return fmt.Errorf("analytic engine: %w", err)
	}
	anaWall := time.Since(anaStart)

	rep.Engines = []engineReport{
		tally("reference-sequential", refWall, 1, ref),
		tally("pruned", prunedWall, 1, pruned),
		tally("parallel", parWall, effectiveWorkers, par),
		tally("search-sweep-table", tabWall, 1, tab),
		tally("search-sweep-analytic", anaWall, 1, ana),
	}
	rep.SpeedupPruned = ratio(refWall, prunedWall)
	rep.SpeedupTable = ratio(refWall, tabWall)
	rep.SpeedupAnalytic = ratio(refWall, anaWall)
	if !rep.SingleCore {
		rep.SpeedupParallel = ratio(refWall, parWall)
	}
	rep.IdenticalResults = identical(ref, pruned) && identical(ref, par) && identical(ref, tab) &&
		onPrincipleLine(ana)

	// Price the GA alone once over the same points for the drop.
	rep.PolishEvalsAnalytic = tally("", 0, 1, ana).Evaluations
	rep.PolishEvalsGA, err = gaPolishEvals(ops, buffers, 1)
	if err != nil {
		return fmt.Errorf("ga baseline: %w", err)
	}
	if rep.PolishEvalsAnalytic > 0 {
		rep.PolishEvalDrop = float64(rep.PolishEvalsGA) / float64(rep.PolishEvalsAnalytic)
	}

	if !rep.IdenticalResults {
		// Still write the report, but fail loudly: equivalence is the whole
		// contract of the optimized engines.
		if werr := write(out, rep); werr != nil {
			return werr
		}
		return fmt.Errorf("engines disagree on the sweep results or analytic left the principle line (see %s)", out)
	}
	if rep.PolishEvalDrop < minPolishDrop {
		if werr := write(out, rep); werr != nil {
			return werr
		}
		return fmt.Errorf("analytic eval drop %.1fx below the %dx floor: GA %d vs analytic %d (see %s)",
			rep.PolishEvalDrop, minPolishDrop, rep.PolishEvalsGA, rep.PolishEvalsAnalytic, out)
	}
	if err := write(out, rep); err != nil {
		return err
	}
	parNote := fmtSpeedup(rep.SpeedupParallel)
	if rep.SingleCore {
		parNote = "single-core"
	}
	fmt.Printf("wrote %s: reference %.1fms, pruned %.1fms (%s), parallel %.1fms (%s), table %.1fms (%s), analytic %.1fms (%s), polish-drop %.1fx, identical=%v\n",
		out, ms(refWall), ms(prunedWall), fmtSpeedup(rep.SpeedupPruned),
		ms(parWall), parNote, ms(tabWall), fmtSpeedup(rep.SpeedupTable),
		ms(anaWall), fmtSpeedup(rep.SpeedupAnalytic), rep.PolishEvalDrop, rep.IdenticalResults)
	return nil
}

// gaPolishEvals prices the GA — default options — over every sweep point
// and returns its summed evaluation count: the numerator of the
// polish-drop gate.
func gaPolishEvals(ops []op.MatMul, buffers []int64, seed int64) (int64, error) {
	var total int64
	for _, mm := range ops {
		for _, bs := range buffers {
			r, err := search.Genetic(mm, bs, search.GeneticOptions{Seed: seed})
			if err != nil {
				return 0, fmt.Errorf("ga %v BS=%d: %w", mm, bs, err)
			}
			total += r.Evaluations
		}
	}
	return total, nil
}

// fmtSpeedup renders a guarded speedup for the one-line summary.
func fmtSpeedup(s *float64) string {
	if s == nil {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", *s)
}

// sweep selects the workload: the paper's full sweep under -full, otherwise
// a reduced two-operator, five-buffer smoke sweep sized for CI.
func sweep(full bool) ([]op.MatMul, []int64) {
	if full {
		return experiments.Fig9Ops(), experiments.Fig9Buffers()
	}
	ops := []op.MatMul{
		{Name: "proj", M: 256, K: 192, L: 192},
		{Name: "QKt", M: 256, K: 32, L: 256},
	}
	var buffers []int64
	for b := int64(4 << 10); b <= 64<<10; b *= 2 {
		buffers = append(buffers, b)
	}
	return ops, buffers
}

// referenceFig9 reproduces experiments.Fig9 exactly, but drives the frozen
// reference engines: unpruned coarse enumeration priced one candidate at a
// time, and the same engine-selection threshold and GA as search.Optimize.
func referenceFig9(ops []op.MatMul, buffers []int64, seed int64) ([]experiments.Fig9Result, error) {
	var results []experiments.Fig9Result
	for _, mm := range ops {
		r := experiments.Fig9Result{Op: mm}
		for _, bs := range buffers {
			pr, err := core.Optimize(mm, bs)
			if err != nil {
				return nil, fmt.Errorf("fig9 %v BS=%d: %w", mm, bs, err)
			}
			sr, err := referenceOptimize(mm, bs, seed)
			if err != nil {
				return nil, fmt.Errorf("fig9 search %v BS=%d: %w", mm, bs, err)
			}
			r.Points = append(r.Points, experiments.Fig9Point{
				BufferElems: bs,
				PrincipleMA: pr.Access.Total,
				SearchMA:    sr.Access.Total,
				Ideal:       mm.IdealMA(),
				SearchEvals: sr.Evaluations,
			})
		}
		results = append(results, r)
	}
	return results, nil
}

// referenceOptimize mirrors search.Optimize, DAT: exact coarse
// enumeration when the lattice is small, the GA kept when it wins, and the
// GA alone above the lattice limit — using the frozen ReferenceCoarse scan
// and the same seeded GA the optimized engines run.
func referenceOptimize(mm op.MatMul, bufferSize, seed int64) (search.Result, error) {
	opts := search.GeneticOptions{Seed: seed}
	if search.CoarseLattice(mm) > search.CoarseLatticeLimit {
		return search.Genetic(mm, bufferSize, opts)
	}
	r, err := search.ReferenceCoarse(mm, bufferSize)
	if err != nil {
		return search.Result{}, err
	}
	g, gerr := search.Genetic(mm, bufferSize, opts)
	if gerr == nil && g.Access.Total < r.Access.Total {
		g.Evaluations += r.Evaluations
		g.Method = "coarse+genetic"
		return g, nil
	}
	r.Evaluations += g.Evaluations
	return r, nil
}

// tally sums an engine's evaluation and table-hit counters over the sweep.
func tally(name string, wall time.Duration, workers int, results []experiments.Fig9Result) engineReport {
	rep := engineReport{Name: name, WallMs: ms(wall), Workers: workers}
	for _, r := range results {
		for _, p := range r.Points {
			rep.Evaluations += p.SearchEvals
			rep.CacheHits += p.SearchCacheHits
		}
	}
	return rep
}

// identical reports whether two sweeps agree on every paper-facing value:
// buffer point, principle MA, search MA, ideal bound, and the total
// candidate-visit count (evaluations + table hits, which a table must
// conserve).
func identical(a, b []experiments.Fig9Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || len(a[i].Points) != len(b[i].Points) {
			return false
		}
		for j := range a[i].Points {
			pa, pb := a[i].Points[j], b[i].Points[j]
			if pa.BufferElems != pb.BufferElems || pa.PrincipleMA != pb.PrincipleMA ||
				pa.SearchMA != pb.SearchMA || pa.Ideal != pb.Ideal ||
				pa.SearchEvals+pa.SearchCacheHits != pb.SearchEvals+pb.SearchCacheHits {
				return false
			}
		}
	}
	return true
}

// onPrincipleLine reports whether a sweep's search MA equals the principle
// MA at every point: the exact analytic engine must sit on the line that
// DAT only reaches where its GA finds the optimum.
func onPrincipleLine(rs []experiments.Fig9Result) bool {
	for _, r := range rs {
		for _, p := range r.Points {
			if p.SearchMA != p.PrincipleMA {
				return false
			}
		}
	}
	return true
}

// minRatioWall is the wall-time floor below which a speedup ratio is noise:
// a sub-100µs measurement is dominated by scheduler and timer granularity,
// and a zero denominator would put Inf into the JSON (which encoding/json
// rejects at marshal time anyway).
const minRatioWall = 100 * time.Microsecond

// ratio returns base/opt as a guarded speedup: nil — rendered as JSON null —
// when either wall time is degenerate, so the report never carries an Inf,
// NaN, or noise-amplified ratio.
func ratio(base, opt time.Duration) *float64 {
	if base < minRatioWall || opt < minRatioWall {
		return nil
	}
	r := float64(base) / float64(opt)
	if math.IsInf(r, 0) || math.IsNaN(r) {
		return nil
	}
	return &r
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func write(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
