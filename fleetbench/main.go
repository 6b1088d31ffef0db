// Command fleetbench is the repository benchmark: it starts one fusecu-route
// in front of two fusecu-serve replicas as child processes, drives one of
// three LLM-traffic workloads through the router with a closed loop of
// clients, checks every answer against an in-process oracle, and prints
// each metric with its unit and sample count, then one JSON result line.
//
//	fleetbench -bin DIR -out DIR --workload search-llm --seed 1 --seconds 25 --trace 0
//
// -bin holds the fusecu-serve and fusecu-route executables; -out receives
// the cached oracles and the traced run's span file. run.sh builds all
// three programs from source and passes both flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"fusecu/client"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	bin, out string
	commit   string
}

// result is the last line of standard output.
type result struct {
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   map[string]any `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the request order")
	fs.IntVar(&cfg.seconds, "seconds", 25, "measured seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&cfg.bin, "bin", "", "directory holding the fusecu-serve and fusecu-route executables")
	fs.StringVar(&cfg.out, "out", "", "directory for cached oracles and span files")
	fs.StringVar(&cfg.commit, "commit", "unknown", "source commit, recorded in the report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.bin == "" || cfg.out == "" || cfg.seconds <= 0 || (cfg.trace != 0 && cfg.trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "fleetbench: need -bin, -out, a positive -seconds and -trace 0 or 1")
		fs.Usage()
		return 2
	}
	res, err := bench(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupRounds is how many times a run sets the fleet up; setup_s is the
// median.
const setupRounds = 5

func bench(ctx context.Context, cfg config, stdout io.Writer) (result, error) {
	reqs, err := requestSet(cfg.workload)
	if err != nil {
		return result{}, err
	}
	want, err := loadOracle(cfg.out, cfg.workload, reqs)
	if err != nil {
		return result{}, err
	}
	meta := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": cfg.commit, "clients": clients, "replicas": replicaCount, "requests": len(reqs),
	}
	b, err := json.Marshal(meta)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "# %s\n", b)
	bins := binaries{serve: filepath.Join(cfg.bin, "fusecu-serve"), route: filepath.Join(cfg.bin, "fusecu-route")}
	var warm []int
	for i, r := range reqs {
		if r.Warm {
			warm = append(warm, i)
		}
	}
	d := time.Duration(cfg.seconds) * time.Second
	if cfg.trace == 1 {
		return tracedRun(ctx, cfg, meta, bins, reqs, want, warm, d, stdout)
	}
	return untracedRun(ctx, cfg, bins, reqs, want, warm, d, stdout)
}

// setUp starts a fleet and sends the warm-up pass through its router. On
// success the fleet is running and the caller stops it.
func setUp(ctx context.Context, bins binaries, reqs []request, want oracle, warm []int) (*fleet, *client.Client, time.Duration, []record, error) {
	start := time.Now()
	f, err := startFleet(ctx, bins)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	c, err := newClient(f.router.url)
	if err != nil {
		f.stop()
		return nil, nil, 0, nil, err
	}
	recs := phase(ctx, c, reqs, want, listed(warm))
	took := time.Since(start)
	if err := ctx.Err(); err != nil {
		f.stop()
		return nil, nil, 0, nil, err
	}
	return f, c, took, recs, nil
}

func untracedRun(ctx context.Context, cfg config, bins binaries, reqs []request, want oracle, warm []int,
	d time.Duration, stdout io.Writer) (result, error) {
	var (
		f        *fleet
		c        *client.Client
		setups   []float64
		warmRecs []record
	)
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	for k := 0; k < setupRounds; k++ {
		if f != nil {
			f.stop()
		}
		var took time.Duration
		var recs []record
		var err error
		if f, c, took, recs, err = setUp(ctx, bins, reqs, want, warm); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
		warmRecs = append(warmRecs, recs...)
	}

	cpu0, err := f.cpuTime()
	if err != nil {
		return result{}, err
	}
	probe, err := newHostProbe()
	if err != nil {
		return result{}, err
	}
	defer probe.close()
	recs, probes, err := measuredPhase(ctx, c, reqs, want, newSequence(len(reqs), cfg.seed), d, probe)
	if err != nil {
		return result{}, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}
	cpu1, err := f.cpuTime()
	if err != nil {
		return result{}, err
	}
	rss, err := f.peakRSS()
	if err != nil {
		return result{}, err
	}
	f.stop()
	f = nil

	attempted, failed, wrong := tally(recs)
	_, warmFailed, warmWrong := tally(warmRecs)
	ok := attempted - failed
	// Timings are medians over windows of windowSize requests: a few
	// seconds in which the host runs slow then move one window, not the
	// whole run.
	ws := measureWindows(windowed(recs))
	var rps, p50, p99 []float64
	q := 0.99
	for _, w := range ws {
		rps, p50, p99 = append(rps, w.rps), append(p50, w.p50), append(p99, w.tail.Value)
		q = min(q, w.tail.Q)
	}
	// On a transport-bound workload the timings are reported at the
	// reference host speed: a run whose host probed slower by a factor h has
	// its times divided by h and its rate multiplied by h. The notes give
	// the values as measured.
	h, applied := hostFactor(probes), transportBound[cfg.workload]
	fmt.Fprintf(stdout, "# host probe: median %.4g ms over %d probes, factor %.4g against %.4g ms, applied %v\n",
		median(probes), len(probes), h, probeRefMS, applied)
	if !applied {
		h = 1
	}
	at := func(raw float64, note string) string { return fmt.Sprintf("%s; measured %.6g", note, raw) }
	note := fmt.Sprintf("median of %d windows", len(ws))
	m := metricSet{}
	m.setNote("throughput_rps", median(rps)*h, ok, at(median(rps), note))
	m.setNote("latency_p50_ms", median(p50)/h, attempted, at(median(p50), note))
	m.setNote("latency_p99_ms", median(p99)/h, attempted, at(median(p99), fmt.Sprintf("p%.4g, %s", 100*q, note)))
	cpu := ms(cpu1-cpu0) / float64(attempted)
	m.setNote("server_cpu_ms_per_req", cpu/h, attempted, at(cpu, "fleet user+sys"))
	m.set("server_rss_mb", float64(rss)/(1<<20), replicaCount+1)
	m.setNote("setup_s", median(setups), len(setups), "median of fleet start, ready and warm-up pass")
	m.ratio("ok_frac", float64(ok), float64(attempted))
	m.ratio("correct_frac", float64(ok-wrong), float64(ok))

	m.print(stdout, endToEnd)
	fmt.Fprintf(stdout, "%-34s %14.6g %-6s n=%d\n", "failed_frac", float64(failed)/float64(attempted), "ratio", attempted)
	fmt.Fprintf(stdout, "%-34s %14d %-6s n=%d\n", "wrong_answers", wrong, "count", ok)
	fmt.Fprintf(stdout, "%-34s %14d %-6s n=%d (failed %d)\n", "warmup_wrong_answers", warmWrong, "count", len(warmRecs), warmFailed)
	if p := firstProblem(append(warmRecs, recs...), reqs); p != "" {
		fmt.Fprintln(stdout, "# first problem:", p)
	}
	return result{
		Correct:   wrong == 0 && warmWrong == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m.jsonMetrics(endToEnd),
	}, nil
}

func tracedRun(ctx context.Context, cfg config, meta map[string]any, bins binaries, reqs []request, want oracle,
	warm []int, d time.Duration, stdout io.Writer) (result, error) {
	f, c, _, warmRecs, err := setUp(ctx, bins, reqs, want, warm)
	if err != nil {
		return result{}, err
	}
	defer f.stop()
	// The replay sends each request straight to a replica too; warm both
	// so those calls find the tables a routed request would.
	var direct []*client.Client
	for _, p := range f.replicas {
		dc, err := newClient(p.url)
		if err != nil {
			return result{}, err
		}
		direct = append(direct, dc)
		warmRecs = append(warmRecs, phase(ctx, dc, reqs, want, listed(warm))...)
	}
	l, err := newLayers(reqs)
	if err != nil {
		return result{}, err
	}
	for _, i := range warm {
		if _, status, err := l.handle(&reqTrace{origin: time.Now()}, 0, reqs[i]); err != nil || status != http.StatusOK {
			return result{}, fmt.Errorf("warm in-process handler with %s: status %d, %v", reqs[i].Key, status, err)
		}
	}

	// Untraced half: the end-to-end baseline of the tracing overhead and
	// the counter deltas.
	before, err := scrapeFleet(ctx, f)
	if err != nil {
		return result{}, err
	}
	stats0 := c.Stats()
	recs := phase(ctx, c, reqs, want, timed(newSequence(len(reqs), cfg.seed), d/2))
	stats1 := c.Stats()
	after, err := scrapeFleet(ctx, f)
	if err != nil {
		return result{}, err
	}
	// Traced half: the same sequence from its start.
	traces, trecs, err := tracedPhase(ctx, c, direct, l, reqs, want, newSequence(len(reqs), cfg.seed), d/2)
	if err != nil {
		return result{}, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}

	m := metricSet{}
	layerMetrics(traces, m)
	counterMetrics(before, after, m)
	m.set("client.retries", float64(stats1.Retries-stats0.Retries), len(recs))
	m.set("client.transport_errors", float64(stats1.TransportErrors-stats0.TransportErrors), len(recs))
	if len(l.tables) > 0 {
		m.set("search.table_build_ms_sum", ms(l.tableBuild), len(l.tables))
		m.set("search.table_candidates_sum", float64(l.tableCandidates), len(l.tables))
	} else {
		m.absent("search.table_build_ms_sum", "no candidate tables on this workload")
		m.absent("search.table_candidates_sum", "no candidate tables on this workload")
	}
	m.p50("arch.evaluate_workload_ms_p50", l.evalProbe, 1)
	if e2e := m["trace.e2e_us_p50"]; e2e != nil && !e2e.absent && len(recs) > 0 {
		base := median(latenciesMS(recs)) * 1e3
		m.setNote("trace.overhead_frac", e2e.value/base-1, len(recs), fmt.Sprintf("untraced p50 %.4g us", base))
	}
	m.print(stdout, perLayer)

	all := append(append(warmRecs, recs...), trecs...)
	attempted, failed, wrong := tally(all)
	if p := firstProblem(all, reqs); p != "" {
		fmt.Fprintln(stdout, "# first problem:", p)
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeTrace(path, meta, traces); err != nil {
		return result{}, err
	}
	fmt.Fprintln(stdout, "# spans written to", path)
	return result{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: m.jsonMetrics(perLayer)}, nil
}

// scrapeFleet reads /metrics of every process, keyed by process name.
func scrapeFleet(ctx context.Context, f *fleet) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	for _, p := range f.procs() {
		s, err := scrape(ctx, p.url)
		if err != nil {
			return nil, err
		}
		out[p.name] = s
	}
	return out, nil
}

// counterMetrics derives the counter metrics from /metrics deltas. A
// counter no process exposes is reported absent, so a layer that stops
// existing does not break the run.
func counterMetrics(before, after map[string]map[string]float64, m metricSet) {
	delta := func(procs []string, name string) (float64, bool) {
		var sum float64
		found := false
		for _, p := range procs {
			if v, ok := after[p][name]; ok {
				found = true
				sum += v - before[p][name]
			}
		}
		return sum, found
	}
	var replicas []string
	for i := 0; i < replicaCount; i++ {
		replicas = append(replicas, fmt.Sprintf("replica%d", i))
	}
	router := []string{"router"}
	everyone := append(append([]string(nil), replicas...), router...)
	count := func(metric string, procs []string, counter string) {
		if v, ok := delta(procs, counter); ok {
			m.set(metric, v, 1)
		} else {
			m.absent(metric, counter+" not in /metrics")
		}
	}
	count("service.table_hits", replicas, "table_hits")
	count("service.table_builds", replicas, "table_builds")
	count("service.shed_429", replicas, "http_responses_total:429")
	count("service.degraded", replicas, "degraded_responses")
	count("service.panics_recovered", everyone, "panics_recovered")
	count("route.failovers", router, "route_failovers_total")
	count("route.hedges", router, "route_hedges_total")
	count("route.upstream_errors", router, "route_upstream_errors_total")

	hits, hok := delta(replicas, "table_hits")
	builds, _ := delta(replicas, "table_builds")
	loads, _ := delta(replicas, "table_loads")
	if hok {
		m.ratio("service.table_hit_ratio", hits, hits+builds+loads)
	} else {
		m.absent("service.table_hit_ratio", "table_hits not in /metrics")
	}
	ch, cok := delta(replicas, "search_cache_hits_total")
	cm, _ := delta(replicas, "search_cache_misses_total")
	if cok {
		m.ratio("service.cache_hit_ratio", ch, ch+cm)
	} else {
		m.absent("service.cache_hit_ratio", "search_cache_hits_total not in /metrics")
	}

	// Requests each backend delivered, from route_backend_requests:<url>.
	var per []float64
	for name, v := range after["router"] {
		if _, ok := strings.CutPrefix(name, "route_backend_requests:"); ok {
			per = append(per, v-before["router"][name])
		}
	}
	var total, top float64
	for _, v := range per {
		total += v
		top = max(top, v)
	}
	if total > 0 {
		mean := total / float64(len(per))
		m.setNote("route.replica_skew", top/mean, int(total), fmt.Sprintf("busiest %g of mean %g", top, mean))
	} else {
		m.absent("route.replica_skew", "no route_backend_requests in /metrics")
	}
}
