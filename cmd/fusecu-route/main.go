// Command fusecu-route runs the router in front of a fleet of fusecu-serve
// replicas.
//
//	fusecu-route -addr :8090 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Requests are routed by health, not by shape: each one starts at the next
// replica of a round-robin rotation and fails over along it, skipping
// ejected replicas; the router never parses a request body. Replicas are
// reached over plain HTTP/1.1 keep-alive connections. At startup every
// backend's /v1/version is checked: a fleet that disagrees on the
// cost-model, table-format, or API version is refused with a nonzero exit,
// because mixed generations behind one router would let identical requests
// return different optima. At runtime /readyz and /v1/version are re-polled
// every -health-interval and unhealthy or drifted replicas are routed
// around.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fusecu/internal/h1"
	"fusecu/internal/route"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable entry point: it parses args, verifies the fleet,
// serves until a signal, and returns the process exit code. When ready is
// non-nil the bound address is sent on it once the listener is up.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("fusecu-route", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8090", "listen address")
		backends = fs.String("backends", "",
			"comma-separated fusecu-serve replica base URLs, plain http (required)")
		healthInterval = fs.Duration("health-interval", 2*time.Second,
			"period between /readyz + /v1/version probes of each replica")
		probeTimeout = fs.Duration("probe-timeout", 2*time.Second, "per-probe deadline")
		drain        = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		attempts     = fs.Int("proxy-attempts", 3,
			"per-request upstream attempt budget (first try, failovers and hedges included)")
		ejectAfter = fs.Int("eject-threshold", 3,
			"consecutive failed attempts that eject a replica from rotation")
		ejectFor = fs.Duration("eject-window", 5*time.Second,
			"how long an ejected replica sits out before one half-open probe request may test it")
		hedgeAfter = fs.Duration("hedge-after", 0,
			"duplicate a request to the next healthy replica of its rotation if the primary has not answered within this delay; first response wins (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fusecu-route: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(stderr, "fusecu-route: -backends is required (comma-separated replica URLs)")
		fs.Usage()
		return 2
	}
	if *healthInterval <= 0 || *probeTimeout <= 0 || *drain <= 0 {
		fmt.Fprintln(stderr, "fusecu-route: -health-interval, -probe-timeout and -drain must be positive")
		fs.Usage()
		return 2
	}
	if *attempts <= 0 || *ejectAfter <= 0 || *ejectFor <= 0 {
		fmt.Fprintln(stderr, "fusecu-route: -proxy-attempts, -eject-threshold and -eject-window must be positive")
		fs.Usage()
		return 2
	}
	if *hedgeAfter < 0 {
		fmt.Fprintln(stderr, "fusecu-route: -hedge-after must be zero (off) or positive")
		fs.Usage()
		return 2
	}

	logger := log.New(stderr, "fusecu-route: ", log.LstdFlags)
	router, err := route.New(route.Config{
		Backends:       urls,
		HealthInterval: *healthInterval,
		ProbeTimeout:   *probeTimeout,
		ProxyAttempts:  *attempts,
		EjectThreshold: *ejectAfter,
		EjectWindow:    *ejectFor,
		HedgeAfter:     *hedgeAfter,
		Logf:           logger.Printf,
	})
	if err != nil {
		fmt.Fprintln(stderr, "fusecu-route:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Refuse to front a fleet that disagrees on versions: better a loud
	// startup failure than silently mixing cost-model generations.
	if err := router.CheckBackends(ctx); err != nil {
		fmt.Fprintln(stderr, "fusecu-route:", err)
		return 1
	}
	v := router.Version()
	fmt.Fprintf(stdout, "fusecu-route: fleet of %d agreed on api=%s cost-model=%s table-format=%d\n",
		len(urls), v.APIVersion, v.CostModelVersion, v.TableFormatVersion)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "fusecu-route:", err)
		return 1
	}
	router.Start(ctx)
	srv := &h1.Server{Handler: router.Handler()}

	fmt.Fprintf(stdout, "fusecu-route: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "fusecu-route:", err)
		return 1
	case <-ctx.Done():
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "fusecu-route: shutdown:", err)
		return 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "fusecu-route:", err)
		return 1
	}
	fmt.Fprintln(stdout, "fusecu-route: drained, exiting")
	return 0
}
