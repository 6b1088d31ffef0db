package h1_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"fusecu/api"
	"fusecu/client"
	"fusecu/internal/faultinject"
	"fusecu/internal/h1"
	"fusecu/internal/route"
	"fusecu/internal/service"
)

// recConn is a served connection that keeps every byte it reads and
// writes. Only its connection's goroutine touches the buffers until the
// server has closed.
type recConn struct {
	net.Conn
	in, out bytes.Buffer
}

func (c *recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Write(p[:n])
	return n, err
}

func (c *recConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	return c.Conn.Write(p)
}

type recListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*recConn
}

func (l *recListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	rc := &recConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, rc)
	l.mu.Unlock()
	return rc, nil
}

// serveRecorded serves h with an h1.Server on a loopback port and records
// every connection. stop closes the server and returns the connections.
func serveRecorded(t *testing.T, h http.Handler) (addr string, stop func() []*recConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rl := &recListener{Listener: ln}
	srv := &h1.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(rl)
	}()
	var once sync.Once
	stop = func() []*recConn {
		once.Do(func() {
			_ = srv.Close()
			<-done
		})
		rl.mu.Lock()
		defer rl.mu.Unlock()
		return rl.conns
	}
	t.Cleanup(func() { stop() })
	return ln.Addr().String(), stop
}

// scanReplies reads raw, the bytes a connection wrote, reply by reply with
// the scanner, and returns each reply's status. rest is what is left from
// the first head the scanner declines, or nil.
func scanReplies(raw []byte) (statuses []int, rest []byte) {
	br := bufio.NewReaderSize(bytes.NewReader(raw), len(raw)+16)
	var s h1.Scanner
	for {
		if _, err := br.Peek(1); err != nil {
			return statuses, nil
		}
		r, ok := s.ScanReply(br)
		if !ok {
			rest, _ = br.Peek(br.Buffered())
			return statuses, rest
		}
		if _, err := br.Discard(int(r.ContentLength)); err != nil {
			return statuses, []byte(err.Error())
		}
		statuses = append(statuses, r.Status)
	}
}

// TestFleetTrafficTakesTheScanner: every head the repository itself puts
// on the wire has the shape the scanner reads, so none of the fleet's own
// traffic reaches http.ReadRequest or http.ReadResponse: the client
// package's requests over net/http.Transport (which adds User-Agent and
// Accept-Encoding), the relay's proxy attempts and probes, and every reply
// a replica and the router write — each endpoint's 200, the error
// envelopes, 429 with Retry-After, the drain 503 with Connection: close,
// and the mux's 404. A header added later that the scanner declines fails
// here.
func TestFleetTrafficTakesTheScanner(t *testing.T) {
	ctx := context.Background()
	// One replica admits one request at a time: the first search stalls
	// holding the slot (429 for the next request), and the first plan fails
	// (500 internal_error).
	svc := service.New(service.Config{MaxInFlight: 1, RetryAfter: 7, Injector: faultinject.New(1,
		faultinject.Plan{Site: "service.search", Mode: faultinject.ModeLatency, Delay: 300 * time.Millisecond, Times: 1},
		faultinject.Plan{Site: "service.plan", Mode: faultinject.ModeError, Times: 1})})
	replicaAddr, stopReplica := serveRecorded(t, svc.Handler())
	router, err := route.New(route.Config{Backends: []string{"http://" + replicaAddr}})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.CheckBackends(ctx); err != nil {
		t.Fatal(err)
	}
	// A second router's health loop probes the replica while it is not
	// ready (503), ejects it, then sees it ready (200) and re-admits it.
	// The probes leave the serving router's breaker alone.
	prober, err := route.New(route.Config{Backends: []string{"http://" + replicaAddr}, HealthInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := prober.CheckBackends(ctx); err != nil {
		t.Fatal(err)
	}
	hctx, stopHealth := context.WithCancel(ctx)
	defer stopHealth()
	prober.Start(hctx)
	probed := prober.Backends()[0]
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the probe to eject the unready replica", func() bool { return !probed.Healthy() })
	svc.SetReady(true)
	waitFor("the probe to re-admit the replica", probed.Healthy)
	stopHealth()
	frontAddr, stopFront := serveRecorded(t, router.Handler())
	// A router whose one replica is gone answers its own envelopes: 502
	// while it still tries the replica, 503 once it has ejected it.
	dead, err := route.New(route.Config{Backends: []string{"http://127.0.0.1:1"}, EjectThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr, stopDead := serveRecorded(t, dead.Handler())

	viaRouter, err := client.New(client.Config{BaseURL: "http://" + frontAddr, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := client.New(client.Config{BaseURL: "http://" + replicaAddr, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadClient, err := client.New(client.Config{BaseURL: "http://" + deadAddr, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	optimize := api.OptimizeRequest{Op: api.OpSpec{Name: "qk", M: 512, K: 64, L: 512}, Buffer: 65536}

	// 429 with Retry-After, through the router, while a search holds the
	// replica's one slot.
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		_, _ = viaRouter.Search(ctx, api.SearchRequest{Op: api.OpSpec{M: 48, K: 32, L: 40}, Buffer: 1024, Engine: "exhaustive"})
	}()
	waitFor("the search to hold the slot", func() bool { return svc.Registry().Gauge("http_inflight").Value() == 1 })
	_, _ = direct.Optimize(ctx, optimize)
	_, _ = viaRouter.Optimize(ctx, optimize)
	<-stalled

	for _, c := range []*client.Client{viaRouter, direct} {
		_, _ = c.Optimize(ctx, optimize)
		_, _ = c.Plan(ctx, api.PlanRequest{Name: "attn", Ops: []api.OpSpec{{Name: "qk", M: 512, K: 64, L: 512}, {Name: "sv", M: 512, K: 512, L: 64}}, Buffer: 65536})
		_, _ = c.Search(ctx, api.SearchRequest{Op: api.OpSpec{M: 48, K: 32, L: 40}, Buffer: 1024, Engine: "coarse"})
		_, _ = c.Evaluate(ctx, api.EvaluateRequest{Model: "BERT"})
		_, _ = c.Version(ctx)
		_, _ = c.Optimize(ctx, api.OptimizeRequest{Op: api.OpSpec{M: 8, K: 8, L: 8}, Buffer: 1})  // 422
		_, _ = c.Optimize(ctx, api.OptimizeRequest{Op: api.OpSpec{M: 0, K: 8, L: 8}, Buffer: 64}) // 400
		_, _ = c.Evaluate(ctx, api.EvaluateRequest{Model: "no-such-model"})                       // 404
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	for _, addr := range []string{frontAddr, replicaAddr, deadAddr} {
		for _, path := range []string{"/v1/search", "/v2/nothing", "/healthz", "/readyz", "/metrics"} {
			resp, err := hc.Get("http://" + addr + path)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	}
	for i := 0; i < 2; i++ {
		_, _ = deadClient.Optimize(ctx, optimize)
	}
	svc.BeginDrain()
	_, _ = viaRouter.Optimize(ctx, optimize)
	_, _ = direct.Optimize(ctx, optimize)

	check := func(tier string, conns []*recConn, wantReqs []string, wantStatuses []int) {
		t.Helper()
		var reqs []string
		var statuses []int
		for _, c := range conns {
			r, rest := h1.ScanRequests(c.in.Bytes())
			if rest != nil {
				t.Errorf("%s: the scanner declined a request head: %q", tier, rest[:min(len(rest), 200)])
			}
			s, rest := scanReplies(c.out.Bytes())
			if rest != nil {
				t.Errorf("%s: the scanner declined a reply head: %q", tier, rest[:min(len(rest), 200)])
			}
			reqs, statuses = append(reqs, r...), append(statuses, s...)
		}
		for _, want := range wantReqs {
			if !slices.Contains(reqs, want) {
				t.Errorf("%s: no %q among the requests read: %q", tier, want, reqs)
			}
		}
		for _, want := range wantStatuses {
			if !slices.Contains(statuses, want) {
				t.Errorf("%s: no %d among the replies read: %v", tier, want, statuses)
			}
		}
	}
	all := []string{"POST /v1/optimize", "POST /v1/plan", "POST /v1/search", "POST /v1/evaluate", "GET /v1/version", "GET /v1/search", "GET /readyz"}
	check("replica", stopReplica(), all, []int{200, 400, 404, 405, 422, 429, 500, 503})
	check("router", stopFront(), all, []int{200, 400, 404, 405, 422, 429, 500, 503})
	check("router without replicas", stopDead(), []string{"POST /v1/optimize"}, []int{200, 404, 502, 503})
}
