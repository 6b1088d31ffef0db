package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"fusecu/client"
	"fusecu/internal/experiments"
	"fusecu/internal/op"
	"fusecu/internal/route"
	"fusecu/internal/search"
	"fusecu/internal/service"
	"fusecu/internal/tablestore"
)

// serveReport is the machine-readable result of the service load benchmark
// (BENCH_serve.json): a wave of concurrent /v1/search requests over the
// serve-load shape set, fired through the shape-affinity router at a fleet
// of in-process fusecu-serve replicas, driven through the public retrying
// client, every accepted answer checked against the frozen sequential
// reference engine.
type serveReport struct {
	Benchmark   string `json:"benchmark"`
	Clients     int    `json:"clients"`
	Replicas    int    `json:"replicas"`
	Shapes      int    `json:"shapes"`
	MaxInFlight int    `json:"max_inflight"`
	// TableDir is the pregenerated artifact directory ("" = tables were
	// built at request time).
	TableDir string `json:"table_dir,omitempty"`
	// OK / Shed / Failed partition the wave after retries: 200s, calls
	// still shed (429) when the retry budget ran out, anything else.
	OK     int `json:"ok"`
	Shed   int `json:"shed"`
	Failed int `json:"failed"`
	// Resilience-layer counters from the client: attempts beyond the first
	// (mostly Retry-After-honoring retries of shed requests), responses
	// served by the server's principle-based degraded fallback, and calls
	// rejected client-side by the open circuit breaker.
	Retried     int64 `json:"retried"`
	Degraded    int64 `json:"degraded"`
	BreakerOpen int64 `json:"breaker_open"`
	// ShedResponses is the fleet-wide count of 429s issued during the wave
	// (each may have been retried into an eventual 200).
	ShedResponses int64 `json:"shed_responses"`
	// InflightHighWater is the worst replica's peak of simultaneously
	// admitted requests.
	InflightHighWater int64   `json:"inflight_high_water"`
	WallMs            float64 `json:"wall_ms"`
	ThroughputRPS     float64 `json:"throughput_rps"`
	// Latency percentiles are the worst replica's (percentiles cannot be
	// merged across registries; the slowest replica bounds the fleet).
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	// Fleet-wide candidate-table registry activity: artifacts loaded from
	// the pregenerated -table-dir, tables built at request time, and O(log n)
	// answers served from resident tables. With a pregenerated directory the
	// wave must report TableBuilds == 0 — every table comes from disk.
	TableLoads  int64 `json:"table_loads"`
	TableBuilds int64 `json:"table_builds"`
	TableHits   int64 `json:"table_hits"`
	// ZeroRuntimeBuilds is true iff no replica built a table during the wave.
	ZeroRuntimeBuilds bool `json:"zero_runtime_builds"`
	// PerReplica breaks the wave down by replica: consistent hashing should
	// give every replica its own shape subset, each answered from its own
	// tables.
	PerReplica []replicaReport `json:"per_replica"`
	// IdenticalResults is true iff every 200 response carried the reference
	// engine's exact optimum (tiling and memory access) for its shape.
	IdenticalResults bool `json:"identical_results"`
}

// replicaReport is one replica's share of the wave.
type replicaReport struct {
	Addr string `json:"addr"`
	// Requests counts what the router proxied here (including retries).
	Requests    int64 `json:"requests"`
	TableLoads  int64 `json:"table_loads"`
	TableBuilds int64 `json:"table_builds"`
	TableHits   int64 `json:"table_hits"`
	// TableHitRate is TableHits / Requests: the fraction of this replica's
	// proxied requests answered from a resident candidate table.
	TableHitRate float64 `json:"table_hit_rate"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
}

const serveLoadBuffer = 4096

// serveReplica is one in-process fusecu-serve instance behind the router.
type serveReplica struct {
	svc  *service.Server
	srv  *http.Server
	addr string
	errc chan error
}

// startServeReplica boots one in-process fusecu-serve replica on addr and
// marks it ready once the listener is accepting. "127.0.0.1:0" picks a free
// port; the chaos harness instead passes a dead incarnation's fixed addr so
// the restarted replica rebinds the same URL the router was configured with.
func startServeReplica(addr string, cfg service.Config) (*serveReplica, error) {
	svc := service.New(cfg)
	srv := &http.Server{Handler: svc.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	r := &serveReplica{svc: svc, srv: srv, addr: ln.Addr().String(), errc: make(chan error, 1)}
	svc.SetReady(true)
	go func() { r.errc <- srv.Serve(ln) }()
	return r, nil
}

// shutdown drains the replica gracefully (bench teardown).
func (r *serveReplica) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	<-r.errc
	return err
}

// kill aborts the replica: the listener and every open connection close
// immediately, which is what a process crash looks like from the router's
// side — in-flight proxy attempts see a transport error, not a drain.
func (r *serveReplica) kill() {
	// Close's error is the listener's close result; the interesting signal
	// (aborted connections) reaches the router as transport errors.
	_ = r.srv.Close()
	<-r.errc
}

// serveLoad boots a fleet of in-process fusecu-serve replicas behind the
// shape-affinity router, fires clients concurrent /v1/search calls over the
// serve-load shape set through the public retrying client, verifies every
// accepted answer against the sequential reference engine, and writes the
// report to out. With a non-empty tableDir each replica resolves its tables
// from the pregenerated artifacts and the wave is required to finish with
// zero runtime table builds. A non-empty pprofAddr additionally serves
// net/http/pprof on its own listener for the duration of the wave.
func serveLoad(out string, clients, maxInFlight, workers, replicas int, tableDir, pprofAddr string) error {
	if replicas <= 0 {
		return fmt.Errorf("replicas must be positive, got %d", replicas)
	}
	ops := experiments.ServeLoadOps()
	want := make(map[[3]int]search.Result, len(ops))
	for _, mm := range ops {
		ref, err := search.ReferenceExhaustive(mm, serveLoadBuffer)
		if err != nil {
			return fmt.Errorf("reference engine %v: %w", mm, err)
		}
		want[[3]int{mm.M, mm.K, mm.L}] = ref
	}

	if pprofAddr != "" {
		pln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		psrv := &http.Server{Handler: pprofMux()}
		go func() {
			if serr := psrv.Serve(pln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "fusecu-bench: pprof:", serr)
			}
		}()
		defer func() {
			if cerr := psrv.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "fusecu-bench: pprof close:", cerr)
			}
		}()
		fmt.Printf("pprof on %s\n", pln.Addr())
	}

	var store *tablestore.Store
	if tableDir != "" {
		var err error
		if store, err = tablestore.Open(tableDir); err != nil {
			return err
		}
	}

	// Boot the fleet.
	fleet := make([]*serveReplica, 0, replicas)
	defer func() {
		for _, r := range fleet {
			if err := r.shutdown(); err != nil {
				fmt.Fprintln(os.Stderr, "fusecu-bench: shutdown:", err)
			}
		}
	}()
	backends := make([]string, 0, replicas)
	for i := 0; i < replicas; i++ {
		r, err := startServeReplica("127.0.0.1:0", service.Config{
			MaxInFlight:   maxInFlight,
			SearchWorkers: workers,
			TableStore:    store,
		})
		if err != nil {
			return err
		}
		fleet = append(fleet, r)
		backends = append(backends, "http://"+r.addr)
	}

	// Front the fleet with the shape-affinity router: identical shapes
	// always land on the replica already holding their table.
	router, err := route.New(route.Config{Backends: backends})
	if err != nil {
		return err
	}
	if err := router.CheckBackends(context.Background()); err != nil {
		return err
	}
	rsrv := &http.Server{Handler: router.Handler()}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	routeErr := make(chan error, 1)
	go func() { routeErr <- rsrv.Serve(rln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rsrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "fusecu-bench: router shutdown:", err)
		}
		<-routeErr
	}()

	cl, err := client.New(client.Config{
		BaseURL:     "http://" + rln.Addr().String(),
		MaxAttempts: 4,
		// The wave intentionally sheds ~(clients - maxInFlight) requests, and
		// consecutive 429s don't trip the breaker; keep the threshold high so
		// a transient flurry of transport hiccups doesn't abort the bench.
		BreakerThreshold: 64,
	})
	if err != nil {
		return err
	}

	rep := serveReport{
		Benchmark:        "serve-search-load",
		Clients:          clients,
		Replicas:         replicas,
		Shapes:           len(ops),
		MaxInFlight:      maxInFlight,
		TableDir:         tableDir,
		IdenticalResults: true,
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(mm op.MatMul) {
			defer wg.Done()
			req := client.SearchRequest{
				Op:      client.OpSpec{Name: mm.Name, M: mm.M, K: mm.K, L: mm.L},
				Buffer:  serveLoadBuffer,
				Engine:  "exhaustive",
				Workers: 1,
			}
			sr, err := cl.Search(context.Background(), req)
			mu.Lock()
			defer mu.Unlock()
			var apiErr *client.APIError
			switch {
			case err == nil:
				rep.OK++
				ref := want[[3]int{mm.M, mm.K, mm.L}]
				if sr.Dataflow.MemoryAccess != ref.Access.Total ||
					sr.Dataflow.TM != ref.Dataflow.Tiling.TM ||
					sr.Dataflow.TK != ref.Dataflow.Tiling.TK ||
					sr.Dataflow.TL != ref.Dataflow.Tiling.TL {
					rep.IdenticalResults = false
				}
			case errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests:
				rep.Shed++
			default:
				rep.Failed++
			}
		}(ops[i%len(ops)])
	}
	wg.Wait()
	wall := time.Since(start)

	rep.WallMs = ms(wall)
	if wall > 0 {
		rep.ThroughputRPS = float64(rep.OK) / wall.Seconds()
	}
	stats := cl.Stats()
	rep.Retried = stats.Retries
	rep.Degraded = stats.Degraded
	rep.BreakerOpen = stats.BreakerOpen

	for i, r := range fleet {
		reg := r.svc.Registry()
		rr := replicaReport{
			Addr:         r.addr,
			Requests:     router.Backends()[i].Requests(),
			TableLoads:   reg.Counter("table_loads").Value(),
			TableBuilds:  reg.Counter("table_builds").Value(),
			TableHits:    reg.Counter("table_hits").Value(),
			LatencyP95Ms: reg.Snapshot()["http_latency_ms:search_p95"],
		}
		if rr.Requests > 0 {
			rr.TableHitRate = float64(rr.TableHits) / float64(rr.Requests)
		}
		rep.PerReplica = append(rep.PerReplica, rr)
		rep.TableLoads += rr.TableLoads
		rep.TableBuilds += rr.TableBuilds
		rep.TableHits += rr.TableHits
		rep.ShedResponses += reg.Counter("http_responses_total:429").Value()
		if hw := reg.Gauge("http_inflight").High(); hw > rep.InflightHighWater {
			rep.InflightHighWater = hw
		}
		snap := reg.Snapshot()
		if p := snap["http_latency_ms:search_p50"]; p > rep.LatencyP50Ms {
			rep.LatencyP50Ms = p
		}
		if p := snap["http_latency_ms:search_p95"]; p > rep.LatencyP95Ms {
			rep.LatencyP95Ms = p
		}
		if p := snap["http_latency_ms:search_p99"]; p > rep.LatencyP99Ms {
			rep.LatencyP99Ms = p
		}
	}
	rep.ZeroRuntimeBuilds = rep.TableBuilds == 0

	if rep.OK == 0 || rep.Failed > 0 || !rep.IdenticalResults {
		if werr := writeServe(out, rep); werr != nil {
			return werr
		}
		return fmt.Errorf("load wave failed: %d ok, %d shed, %d failed, identical=%v (see %s)",
			rep.OK, rep.Shed, rep.Failed, rep.IdenticalResults, out)
	}
	// With pregenerated tables the wave must never pay a build at request
	// time — that is the whole contract of -table-dir.
	if tableDir != "" && !rep.ZeroRuntimeBuilds {
		if werr := writeServe(out, rep); werr != nil {
			return werr
		}
		return fmt.Errorf("wave built %d tables at request time despite -table-dir %s (see %s)",
			rep.TableBuilds, tableDir, out)
	}
	if err := writeServe(out, rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d ok / %d shed over %d replicas x %d shapes in %.1fms (%.0f rps), %d retried (%d server 429s), %d degraded, peak in-flight %d, p95 %.2fms, table %d loaded / %d built / %d hits, zero-builds=%v, identical=%v\n",
		out, rep.OK, rep.Shed, rep.Replicas, rep.Shapes, rep.WallMs, rep.ThroughputRPS,
		rep.Retried, rep.ShedResponses, rep.Degraded,
		rep.InflightHighWater, rep.LatencyP95Ms,
		rep.TableLoads, rep.TableBuilds, rep.TableHits, rep.ZeroRuntimeBuilds, rep.IdenticalResults)
	for _, rr := range rep.PerReplica {
		fmt.Printf("  replica %s: %d requests, table %d loaded / %d built / %d hits (hit rate %.2f)\n",
			rr.Addr, rr.Requests, rr.TableLoads, rr.TableBuilds, rr.TableHits, rr.TableHitRate)
	}
	return nil
}

// pprofMux mounts the net/http/pprof handlers on a fresh mux so profiling
// stays off the benchmarked service listener.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", recovered(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", recovered(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", recovered(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", recovered(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", recovered(pprof.Trace))
	return mux
}

// recovered keeps the panic-isolation contract on the profiling mux: a
// panicking pprof handler answers 500 and the bench keeps running.
func recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				http.Error(w, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
			}
		}()
		h(w, r)
	}
}

func writeServe(path string, rep serveReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
