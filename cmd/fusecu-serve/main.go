// Command fusecu-serve runs the FuseCU optimization service: an HTTP/JSON
// daemon exposing principle-based optimization (/v1/optimize), chain fusion
// planning (/v1/plan), the DAT-style search baseline (/v1/search), and
// cross-platform workload evaluation (/v1/evaluate), plus /metrics, the
// /healthz liveness probe and the /readyz readiness probe.
//
//	fusecu-serve -addr :8080 -max-inflight 64 -timeout 30s
//
// With -pprof ADDR the daemon additionally serves net/http/pprof on a
// separate listener (never on the public address), e.g.:
//
//	fusecu-serve -addr :8080 -pprof 127.0.0.1:6060
//
// On SIGINT/SIGTERM the server first flips /readyz to 503 and answers new
// requests with a fast 503 (Connection: close) while the listener stays open
// — so load balancers stop routing without seeing connection resets — waits
// up to -drain-grace for in-flight requests to finish, then closes the
// listener and drains the remainder within -drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fusecu/internal/h1"
	"fusecu/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable entry point: it parses args, serves until a signal
// (or until ready receives the bound address and the returned shutdown is
// triggered in tests), and returns the process exit code.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("fusecu-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		maxInflight = fs.Int("max-inflight", 64, "maximum concurrently admitted requests")
		timeout     = fs.Duration("timeout", 30*time.Second, "default per-request deadline")
		drain       = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		drainGrace  = fs.Duration("drain-grace", 500*time.Millisecond,
			"after a signal, keep the listener open this long (rejecting new requests with fast 503s) while in-flight requests finish")
		pprofAddr = fs.String("pprof", "",
			"serve net/http/pprof on this separate listener (e.g. 127.0.0.1:6060; empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fusecu-serve: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *maxInflight <= 0 || *timeout <= 0 || *drain <= 0 || *drainGrace < 0 {
		fmt.Fprintln(stderr, "fusecu-serve: -max-inflight, -timeout and -drain must be positive and -drain-grace non-negative")
		fs.Usage()
		return 2
	}

	svc := service.New(service.Config{
		MaxInFlight:    *maxInflight,
		DefaultTimeout: *timeout,
	})
	srv := &h1.Server{Handler: svc.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "fusecu-serve:", err)
		return 1
	}

	// Profiling stays off the service listener: pprof handlers are mounted
	// only on their own mux behind -pprof, so the public surface never
	// exposes /debug/pprof/ and the profiler survives service drain.
	var pprofSrv *http.Server
	var pprofBound string
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "fusecu-serve: pprof:", err)
			if cerr := ln.Close(); cerr != nil {
				fmt.Fprintln(stderr, "fusecu-serve:", cerr)
			}
			return 1
		}
		pprofSrv = &http.Server{Handler: pprofMux()}
		go func() {
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(stderr, "fusecu-serve: pprof:", err)
			}
		}()
		defer func() {
			if err := pprofSrv.Close(); err != nil {
				fmt.Fprintln(stderr, "fusecu-serve: pprof close:", err)
			}
		}()
		fmt.Fprintf(stdout, "fusecu-serve: pprof on %s\n", pln.Addr())
		pprofBound = pln.Addr().String()
	}

	svc.SetReady(true)
	fmt.Fprintf(stdout, "fusecu-serve: listening on %s\n", ln.Addr())
	if ready != nil {
		// Main address first, then the pprof address when enabled.
		ready <- ln.Addr().String()
		if pprofBound != "" {
			ready <- pprofBound
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Listener failed before any signal.
		fmt.Fprintln(stderr, "fusecu-serve:", err)
		return 1
	case <-ctx.Done():
	}

	// Phase 1: stop admitting work but keep the listener open, so late
	// arrivals get a clean fast 503 (Connection: close) instead of a reset,
	// and /readyz tells load balancers to route elsewhere. The grace window
	// ends early once nothing is in flight.
	svc.BeginDrain()
	fmt.Fprintln(stdout, "fusecu-serve: draining in-flight requests")
	inflight := svc.Registry().Gauge("http_inflight")
	graceDeadline := time.Now().Add(*drainGrace)
	for inflight.Value() > 0 && time.Now().Before(graceDeadline) {
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 2: close the listener and drain whatever is left.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "fusecu-serve: shutdown:", err)
		return 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "fusecu-serve:", err)
		return 1
	}
	fmt.Fprintln(stdout, "fusecu-serve: drained, exiting")
	return 0
}

// pprofMux mounts the net/http/pprof handlers on a fresh mux, so the
// profiling endpoints exist only on the -pprof listener and never leak onto
// the public service listener (which does not use http.DefaultServeMux).
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
// panicking pprof handler answers 500 and the daemon keeps serving.
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
