package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fusecu/client"
	"fusecu/internal/experiments"
	"fusecu/internal/faultinject"
	"fusecu/internal/h1"
	"fusecu/internal/op"
	"fusecu/internal/route"
	"fusecu/internal/search"
	"fusecu/internal/service"
)

// Chaos-schedule tuning. The schedule is gated on completion counts, not
// wall-clock sleeps, so the same seed produces the same event ordering on a
// loaded CI box and a fast laptop alike.
const (
	// chaosHealthInterval / chaosProbeTimeout compress the router's health
	// loop so a restarted replica is re-admitted quickly; the recovery
	// assertion is stated in terms of these.
	chaosHealthInterval = 100 * time.Millisecond
	chaosProbeTimeout   = 500 * time.Millisecond
	// chaosEjectThreshold ejects a dead replica after two straight failed
	// proxy attempts (the health loop force-ejects independently).
	chaosEjectThreshold = 2
	chaosEjectWindow    = 400 * time.Millisecond
	// chaosPreKill is how many wave completions must land before each kill
	// (the fleet is demonstrably serving); chaosPostKill how many must land
	// while the victim is down (its traffic is demonstrably failing over);
	// chaosSettle how many after the last recovery (the fleet is whole
	// again).
	chaosPreKill  = 32
	chaosPostKill = 48
	chaosSettle   = 32
	// chaosRecoveryMargin absorbs scheduler noise on top of the structural
	// recovery bound (one health interval + one probe timeout).
	chaosRecoveryMargin = 2 * time.Second
	// chaosStall bounds every completion-count gate; hitting it means the
	// wave wedged, which is itself a failure worth reporting.
	chaosStall = 2 * time.Minute
	// Hedge-forcing latency plan at route.proxy (armed only when hedging is
	// on): every 41st attempt after the 13th stalls 3x the hedge delay, 8
	// times — enough firings that at least one lands on a request's opening
	// attempt and loses its race to the hedge.
	chaosHedgeEvery  = 41
	chaosHedgeOffset = 13
	chaosHedgeTimes  = 8
)

// chaosReport is the machine-readable result of the chaos wave (-serve-load
// -chaos): the routed serve-load fleet under a seeded kill/restart schedule,
// asserting that in-request failover, ejection, half-open recovery, and
// (optionally) hedging keep every request whole — zero non-enveloped
// failures, every 200 bit-identical to the sequential reference engine.
type chaosReport struct {
	Benchmark     string  `json:"benchmark"`
	Seed          int64   `json:"seed"`
	Clients       int     `json:"clients"`
	Replicas      int     `json:"replicas"`
	Shapes        int     `json:"shapes"`
	MaxInFlight   int     `json:"max_inflight"`
	Kills         int     `json:"kills"`
	ProxyAttempts int     `json:"proxy_attempts"`
	HedgeAfterMs  float64 `json:"hedge_after_ms"`
	// The recovery assertion's structural inputs.
	HealthIntervalMs float64 `json:"health_interval_ms"`
	ProbeTimeoutMs   float64 `json:"probe_timeout_ms"`
	// Wave outcome: requests completed, and the failure partition. OK are
	// 200s (every one reference-checked); Shed are 429s that survived the
	// client's retry budget; Enveloped are any other API-error envelopes;
	// NonEnveloped are raw transport-level failures, which the failover
	// contract says must not exist.
	Requests     int64 `json:"requests"`
	OK           int64 `json:"ok"`
	Shed         int64 `json:"shed"`
	Enveloped    int64 `json:"enveloped"`
	NonEnveloped int64 `json:"non_enveloped"`
	// IdenticalResults is true iff every 200 — wave and settle pass both —
	// carried the reference engine's exact optimum for its shape.
	IdenticalResults bool    `json:"identical_results"`
	WallMs           float64 `json:"wall_ms"`
	// Router resilience counters over the whole run.
	Failovers       int64 `json:"failovers"`
	Hedges          int64 `json:"hedges"`
	HedgeWins       int64 `json:"hedge_wins"`
	Ejections       int64 `json:"ejections"`
	UpstreamErrors  int64 `json:"upstream_errors"`
	RetryableStatus int64 `json:"retryable_status"`
	CopyErrors      int64 `json:"copy_errors"`
	CloseErrors     int64 `json:"close_errors"`
	// Client-side resilience counters.
	ClientRetries         int64 `json:"client_retries"`
	ClientTransportErrors int64 `json:"client_transport_errors"`
	ClientServerErrors    int64 `json:"client_server_errors"`
	// Events is the realized schedule, in order.
	Events []chaosEvent `json:"events"`
	// PerReplica breaks counters down by replica slot (all incarnations).
	PerReplica []chaosReplica `json:"per_replica"`
	// Violations lists every failed assertion; empty means the run passed.
	Violations []string `json:"violations,omitempty"`
}

// chaosEvent is one realized kill/restart cycle.
type chaosEvent struct {
	Victim string `json:"victim"`
	// KilledAt / RestartedAt are wave completion counts — the deterministic
	// clock the schedule runs on.
	KilledAt    int64 `json:"killed_at_requests"`
	RestartedAt int64 `json:"restarted_at_requests"`
	// RecoveryMs is restart-to-readmission as observed via the router's
	// breaker state.
	RecoveryMs float64 `json:"recovery_ms"`
}

// chaosReplica is one replica slot's totals across all its incarnations.
type chaosReplica struct {
	Addr     string `json:"addr"`
	Requests int64  `json:"requests"`
	Attempts int64  `json:"attempts"`
}

// chaosSlot is one replica slot: a fixed address the router knows, plus the
// live incarnation.
type chaosSlot struct {
	addr string
	url  string
	cfg  service.Config
	rep  *serveReplica
}

// chaosLoad runs the seeded chaos schedule: the serve-load wave at full
// concurrency over a replicas-wide routed fleet, with kills replicas
// hard-killed and restarted in sequence, then a settle pass over every
// shape. The report — realized schedule, resilience counters, and
// assertion verdicts — is written to out; a non-nil error means at least
// one assertion failed.
func chaosLoad(out string, clients, maxInFlight, replicas int, seed int64, kills int, hedgeAfter time.Duration, proxyAttempts int) error {
	if replicas < 2 {
		return fmt.Errorf("chaos needs at least 2 replicas to fail over between, got %d", replicas)
	}
	if kills < 1 {
		return fmt.Errorf("chaos needs at least 1 kill, got %d", kills)
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

	// Boot the fleet on fixed addresses so a restarted incarnation rebinds
	// the URL the router was configured with.
	slots := make([]*chaosSlot, 0, replicas)
	defer func() {
		for _, s := range slots {
			if s.rep == nil {
				continue
			}
			if serr := s.rep.shutdown(); serr != nil {
				fmt.Fprintln(os.Stderr, "fusecu-bench: chaos shutdown:", serr)
			}
		}
	}()
	backends := make([]string, 0, replicas)
	for i := 0; i < replicas; i++ {
		cfg := service.Config{MaxInFlight: maxInFlight}
		rep, err := startServeReplica("127.0.0.1:0", cfg)
		if err != nil {
			return err
		}
		s := &chaosSlot{addr: rep.addr, url: "http://" + rep.addr, cfg: cfg, rep: rep}
		slots = append(slots, s)
		backends = append(backends, s.url)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fusecu-bench: "+format+"\n", args...)
	}
	router, err := route.New(route.Config{
		Backends:       backends,
		HealthInterval: chaosHealthInterval,
		ProbeTimeout:   chaosProbeTimeout,
		EjectThreshold: chaosEjectThreshold,
		EjectWindow:    chaosEjectWindow,
		ProxyAttempts:  proxyAttempts,
		HedgeAfter:     hedgeAfter,
		Logf:           logf,
	})
	if err != nil {
		return err
	}
	if err := router.CheckBackends(context.Background()); err != nil {
		return err
	}
	hctx, hcancel := context.WithCancel(context.Background())
	defer hcancel()
	router.Start(hctx)

	rsrv := &h1.Server{Handler: router.Handler()}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	routeErr := make(chan error, 1)
	go func() { routeErr <- rsrv.Serve(rln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := rsrv.Shutdown(ctx); serr != nil {
			fmt.Fprintln(os.Stderr, "fusecu-bench: router shutdown:", serr)
		}
		<-routeErr
	}()

	// When hedging is on, force it deterministically: a latency plan at the
	// router's per-attempt injection site stalls scheduled attempts for 3x
	// the hedge delay, so the hedge fires and wins the race. route.probe is
	// deliberately left unarmed — unit tests own that site; here a flaky
	// probe would smear the recovery-time assertion.
	if hedgeAfter > 0 {
		faultinject.Activate(faultinject.New(seed, faultinject.Plan{
			Site:   route.SiteProxy,
			Mode:   faultinject.ModeLatency,
			Every:  chaosHedgeEvery,
			Offset: chaosHedgeOffset,
			Times:  chaosHedgeTimes,
			Delay:  3 * hedgeAfter,
		}))
		defer faultinject.Deactivate()
	}

	// The wave rides the public retrying client with its breaker disabled:
	// the router's failover is under test, and an open client breaker would
	// hide it. Backoffs are compressed so 429 retries don't slow the
	// completion-count clock.
	cl, err := client.New(client.Config{
		BaseURL:          "http://" + rln.Addr().String(),
		MaxAttempts:      6,
		BaseBackoff:      5 * time.Millisecond,
		MaxBackoff:       80 * time.Millisecond,
		BreakerThreshold: -1,
		Seed:             seed,
	})
	if err != nil {
		return err
	}

	rep := chaosReport{
		Benchmark:        "serve-chaos-load",
		Seed:             seed,
		Clients:          clients,
		Replicas:         replicas,
		Shapes:           len(ops),
		MaxInFlight:      maxInFlight,
		Kills:            kills,
		ProxyAttempts:    proxyAttempts,
		HedgeAfterMs:     ms(hedgeAfter),
		HealthIntervalMs: ms(chaosHealthInterval),
		ProbeTimeoutMs:   ms(chaosProbeTimeout),
		IdenticalResults: true,
	}
	fail := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	// The wave: every client loops the shape set until told to stop,
	// classifying each completion. The completion counter is the schedule's
	// clock.
	var (
		completions, okN, shedN, envN, nonEnvN, mismatches atomic.Int64
		wg                                                 sync.WaitGroup
	)
	stop := make(chan struct{})
	var stopOnce sync.Once
	stopWave := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	defer stopWave()

	check := func(mm op.MatMul) bool {
		sr, err := cl.Search(context.Background(), client.SearchRequest{
			Op:     client.OpSpec{Name: mm.Name, M: mm.M, K: mm.K, L: mm.L},
			Buffer: serveLoadBuffer,
			Engine: "exhaustive",
		})
		var apiErr *client.APIError
		switch {
		case err == nil:
			okN.Add(1)
			ref := want[[3]int{mm.M, mm.K, mm.L}]
			if sr.Dataflow.MemoryAccess != ref.Access.Total ||
				sr.Dataflow.TM != ref.Dataflow.Tiling.TM ||
				sr.Dataflow.TK != ref.Dataflow.Tiling.TK ||
				sr.Dataflow.TL != ref.Dataflow.Tiling.TL {
				mismatches.Add(1)
				return false
			}
			return true
		case errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests:
			shedN.Add(1)
		case errors.As(err, &apiErr):
			envN.Add(1)
		default:
			nonEnvN.Add(1)
		}
		return false
	}

	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := i; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				check(ops[j%len(ops)])
				completions.Add(1)
			}
		}(i)
	}

	// waitUntil blocks until the wave has landed target completions; the
	// stall deadline converts a wedged wave into a reported failure instead
	// of a hung bench.
	waitUntil := func(target int64, what string) error {
		deadline := time.Now().Add(chaosStall)
		for completions.Load() < target {
			if time.Now().After(deadline) {
				return fmt.Errorf("wave stalled waiting for %s (%d of %d completions)",
					what, completions.Load(), target)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	}

	// Victim order: a seeded permutation of all slots. Every replica takes
	// its turn in the router's rotation, so every kill catches traffic.
	rng := rand.New(rand.NewSource(seed))
	victims := make([]*chaosSlot, 0, len(slots))
	for _, idx := range rng.Perm(len(slots)) {
		victims = append(victims, slots[idx])
	}

	schedule := func() error {
		for ki := 0; ki < kills; ki++ {
			v := victims[ki%len(victims)]
			if err := waitUntil(completions.Load()+chaosPreKill, fmt.Sprintf("pre-kill traffic before kill %d", ki+1)); err != nil {
				return err
			}
			ev := chaosEvent{Victim: v.url, KilledAt: completions.Load()}
			logf("chaos: killing %s at %d completions", v.url, ev.KilledAt)
			v.rep.kill()
			v.rep = nil
			// Keep the wave running against the hole: requests rotated onto
			// the victim must demonstrably fail over while it is down.
			if err := waitUntil(ev.KilledAt+chaosPostKill, fmt.Sprintf("failover traffic during outage %d", ki+1)); err != nil {
				return err
			}
			restartAt := time.Now()
			nr, err := startServeReplica(v.addr, v.cfg)
			if err != nil {
				return fmt.Errorf("restarting %s: %w", v.addr, err)
			}
			v.rep = nr
			ev.RestartedAt = completions.Load()
			// Recovery: the health loop must re-admit the replica within one
			// probe period (an interval to notice + a probe to pass), plus
			// scheduler margin.
			b := backendFor(router, v.url)
			bound := chaosHealthInterval + chaosProbeTimeout + chaosRecoveryMargin
			for !b.Healthy() {
				if time.Since(restartAt) > bound {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			ev.RecoveryMs = ms(time.Since(restartAt))
			if !b.Healthy() {
				fail("replica %s not re-admitted %v after restart (want one probe period: %v interval + %v probe)",
					v.url, bound, chaosHealthInterval, chaosProbeTimeout)
			}
			logf("chaos: %s re-admitted %.0fms after restart", v.url, ev.RecoveryMs)
			rep.Events = append(rep.Events, ev)
		}
		// Whole fleet again: let the wave settle so every shape is served
		// post-recovery.
		return waitUntil(completions.Load()+chaosSettle, "settle traffic after last recovery")
	}
	if err := schedule(); err != nil {
		fail("%v", err)
	}
	stopWave()
	rep.WallMs = ms(time.Since(start))

	// Settle pass: one sequential request per shape against the healed
	// fleet. Every one must be a 200 carrying the reference optimum.
	for _, mm := range ops {
		if !check(mm) {
			fail("settle pass: shape %v did not return the reference optimum", mm)
		}
		completions.Add(1)
	}
	rep.Requests = completions.Load()

	rep.OK = okN.Load()
	rep.Shed = shedN.Load()
	rep.Enveloped = envN.Load()
	rep.NonEnveloped = nonEnvN.Load()
	rep.IdenticalResults = mismatches.Load() == 0

	reg := router.Registry()
	rep.Failovers = reg.Counter("route_failovers_total").Value()
	rep.Hedges = reg.Counter("route_hedges_total").Value()
	rep.HedgeWins = reg.Counter("route_hedge_wins_total").Value()
	rep.Ejections = reg.Counter("route_ejections_total").Value()
	rep.UpstreamErrors = reg.Counter("route_upstream_errors_total").Value()
	rep.RetryableStatus = reg.Counter("route_retryable_status_total").Value()
	rep.CopyErrors = reg.Counter("route_copy_errors_total").Value()
	rep.CloseErrors = reg.Counter("route_close_errors_total").Value()

	stats := cl.Stats()
	rep.ClientRetries = stats.Retries
	rep.ClientTransportErrors = stats.TransportErrors
	rep.ClientServerErrors = stats.ServerErrors

	for _, s := range slots {
		var requests, attempts int64
		if b := backendFor(router, s.url); b != nil {
			requests, attempts = b.Requests(), b.Attempts()
		}
		rep.PerReplica = append(rep.PerReplica, chaosReplica{Addr: s.addr, Requests: requests, Attempts: attempts})
	}

	// The acceptance assertions.
	if rep.NonEnveloped > 0 {
		fail("%d non-enveloped failures (want 0: every failure must be an API envelope)", rep.NonEnveloped)
	}
	if rep.Enveloped > 0 {
		fail("%d enveloped non-429 failures survived the client's retries (want 0)", rep.Enveloped)
	}
	if !rep.IdenticalResults {
		fail("%d responses disagreed with the reference engine (want bit-identical)", mismatches.Load())
	}
	if rep.OK == 0 {
		fail("no successful requests at all")
	}
	// A request caught by a kill is rescued either by the outer failover
	// loop (route_failovers_total) or inside a hedge race that was already
	// pending (route_hedge_wins_total) — both are in-request recovery, and
	// with hedging on a fast hedge can absorb every casualty before the
	// failover loop sees one. Requests arriving after the health loop ejects
	// the victim skip it silently and count as neither.
	if rep.Failovers+rep.HedgeWins < int64(kills) {
		fail("route_failovers_total + route_hedge_wins_total = %d + %d, want >= %d (one in-request recovery per kill at minimum)",
			rep.Failovers, rep.HedgeWins, kills)
	}
	if rep.Ejections < 1 {
		fail("route_ejections_total = %d, want >= 1 (a killed replica must be ejected)", rep.Ejections)
	}
	if hedgeAfter > 0 {
		if rep.Hedges < 1 {
			fail("route_hedges_total = %d, want >= 1 (latency plan fired %d times)",
				rep.Hedges, faultinject.Active().Fires(route.SiteProxy))
		}
		if rep.HedgeWins < 1 {
			fail("route_hedge_wins_total = %d, want >= 1 (a 3x-delayed primary must lose its race)", rep.HedgeWins)
		}
	}

	if err := writeChaos(out, rep); err != nil {
		return err
	}
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "fusecu-bench: chaos violation:", v)
		}
		return fmt.Errorf("chaos run failed %d assertions (see %s)", len(rep.Violations), out)
	}
	fmt.Printf("wrote %s: %d requests (%d ok / %d shed) over %d replicas, %d kills in %.0fms; %d failovers, %d hedges (%d wins), %d ejections, identical=%v\n",
		out, rep.Requests, rep.OK, rep.Shed, rep.Replicas, rep.Kills, rep.WallMs,
		rep.Failovers, rep.Hedges, rep.HedgeWins, rep.Ejections, rep.IdenticalResults)
	for _, ev := range rep.Events {
		fmt.Printf("  killed %s at %d completions, restarted at %d, re-admitted in %.0fms\n",
			ev.Victim, ev.KilledAt, ev.RestartedAt, ev.RecoveryMs)
	}
	return nil
}

// backendFor finds the router's Backend for a base URL.
func backendFor(r *route.Router, url string) *route.Backend {
	for _, b := range r.Backends() {
		if b.URL() == url {
			return b
		}
	}
	return nil
}

func writeChaos(path string, rep chaosReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
