package route

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fusecu/internal/experiments"
	"fusecu/internal/service"
)

// connCounter is an httptest server's ConnState hook counting opened and
// closed connections.
type connCounter struct{ opened, closed atomic.Int64 }

func (c *connCounter) hook(_ net.Conn, s http.ConnState) {
	switch s {
	case http.StateNew:
		c.opened.Add(1)
	case http.StateClosed:
		c.closed.Add(1)
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// newCountedBackend is newBackend's fake replica with a connection counter.
func newCountedBackend(t *testing.T, handler http.HandlerFunc) (*httptest.Server, *connCounter) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("/v1/version", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"api_version":"`+fleetVersion.APIVersion+`","cost_model_version":"`+
			fleetVersion.CostModelVersion+`","table_format_version":`+strconv.Itoa(fleetVersion.TableFormatVersion)+`}`)
	})
	mux.HandleFunc("/v1/", handler)
	cc := &connCounter{}
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = cc.hook
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, cc
}

func okReply(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, `{"replica":"r1"}`)
}

// TestRelayReusesOneConnection: sequential requests — the version check
// and 100 proxied requests — share one upstream connection.
func TestRelayReusesOneConnection(t *testing.T) {
	ts, cc := newCountedBackend(t, okReply)
	r := newFleetRouter(t, ts.URL)
	h := r.Handler()
	for i := 0; i < 100; i++ {
		if got := replicaFor(t, h, searchBody(8, 8, 8)); got != "r1" {
			t.Fatalf("request %d answered by %q", i, got)
		}
	}
	if n := cc.opened.Load(); n != 1 {
		t.Fatalf("100 sequential requests opened %d upstream connections, want 1", n)
	}
}

// TestRelayRetriesStaleConnection: a replica closing an idle keep-alive
// connection is invisible to the next request — the relay redials once,
// and nothing counts a failure.
func TestRelayRetriesStaleConnection(t *testing.T) {
	ts, cc := newCountedBackend(t, okReply)
	r := newFleetRouter(t, ts.URL)
	h := r.Handler()
	replicaFor(t, h, searchBody(8, 8, 8))
	ts.CloseClientConnections()
	waitFor(t, "the replica to close the idle connection", func() bool { return cc.closed.Load() == 1 })

	if got := replicaFor(t, h, searchBody(8, 8, 8)); got != "r1" {
		t.Fatalf("request after the idle close answered by %q", got)
	}
	if n := cc.opened.Load(); n != 2 {
		t.Fatalf("opened %d upstream connections, want 2 (one redial)", n)
	}
	snap := r.Registry().Snapshot()
	for _, name := range []string{"route_failovers_total", "route_upstream_errors_total", "route_ejections_total"} {
		if snap[name] != 0 {
			t.Errorf("%s = %v after a stale connection, want 0", name, snap[name])
		}
	}
	if got := snap["route_backend_failures:"+strings.TrimRight(ts.URL, "/")]; got != 0 {
		t.Errorf("backend failures = %v after a stale connection, want 0", got)
	}
}

// TestRelayPoolsOnlyCleanReplies: a connection goes back to the pool only
// after its reply was read to EOF and did not ask to close.
func TestRelayPoolsOnlyCleanReplies(t *testing.T) {
	big := strings.Repeat("x", 64<<10)
	ts, _ := newCountedBackend(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/big":
			_, _ = io.WriteString(w, big)
		case "/v1/close":
			w.Header().Set("Connection", "close")
			_, _ = io.WriteString(w, `{}`)
		default:
			_, _ = io.WriteString(w, `{}`)
		}
	})
	rl := newRelay()
	host := strings.TrimPrefix(ts.URL, "http://")
	get := func(path string, readAll bool) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := rl.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if readAll {
			_, err = io.ReadAll(resp.Body)
		} else {
			_, err = io.ReadFull(resp.Body, make([]byte, 10))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}
	pooled := func() int {
		rl.mu.Lock()
		defer rl.mu.Unlock()
		return len(rl.idle[host])
	}

	for _, step := range []struct {
		path    string
		readAll bool
		want    int
	}{
		{"/v1/ok", true, 1},    // clean: pooled
		{"/v1/big", false, 0},  // abandoned mid-body: closed
		{"/v1/ok", true, 1},    // a fresh connection, pooled
		{"/v1/close", true, 0}, // Connection: close: closed
		{"/v1/big", true, 1},   // read to EOF: pooled
		{"/v1/big", false, 0},  // abandoned again
	} {
		get(step.path, step.readAll)
		if got := pooled(); got != step.want {
			t.Fatalf("after %s (read all %v): %d pooled connections, want %d", step.path, step.readAll, got, step.want)
		}
	}
}

// TestRelayCutsHungUpstreamAtDeadline: an upstream that never answers is
// cut when the request's deadline passes, with an error that names the
// deadline.
func TestRelayCutsHungUpstreamAtDeadline(t *testing.T) {
	release := make(chan struct{})
	ts, _ := newCountedBackend(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	t.Cleanup(func() { close(release) })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/search", strings.NewReader(searchBody(8, 8, 8)))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = newRelay().RoundTrip(req)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
	if elapsed < 50*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("hung upstream cut after %v, want at the 50ms deadline", elapsed)
	}
}

// TestChunkedReplyGetsContentLength: a reply the replica streams chunked
// reaches the client byte-identical, framed with a Content-Length.
func TestChunkedReplyGetsContentLength(t *testing.T) {
	payload := strings.Repeat(`{"part":1}`, 300)
	ts, _ := newCountedBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, payload[:100])
		w.(http.Flusher).Flush()
		_, _ = io.WriteString(w, payload[100:])
	})
	r := newFleetRouter(t, ts.URL)
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	c := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(c.CloseIdleConnections)

	resp, err := c.Post(front.URL+"/v1/search", "application/json", strings.NewReader(searchBody(8, 8, 8)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payload {
		t.Fatalf("body differs from the chunked upstream reply (%d vs %d bytes)", len(got), len(payload))
	}
	if resp.ContentLength != int64(len(payload)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v; want %d and none", resp.ContentLength, resp.TransferEncoding, len(payload))
	}
}

// TestPassThroughMatchesReplica: against a real fusecu-serve handler, every
// endpoint's 200 and error replies reach the client through the router
// exactly as the replica sends them directly — status, Content-Type,
// Retry-After, Connection and body — each with a Content-Length.
func TestPassThroughMatchesReplica(t *testing.T) {
	svc := service.New(service.Config{})
	svc.SetReady(true)
	replica := httptest.NewServer(svc.Handler())
	t.Cleanup(replica.Close)
	r := newFleetRouter(t, replica.URL)
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	c := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(c.CloseIdleConnections)

	type reply struct {
		status int
		header [2]string
		close  bool // Connection: close, which the client strips from Header
		body   string
		length int64
	}
	do := func(base, method, path, body string) reply {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return reply{
			status: resp.StatusCode,
			header: [2]string{resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After")},
			close:  resp.Close,
			body:   string(b),
			length: resp.ContentLength,
		}
	}
	cases := []struct{ name, method, path, body string }{
		{"optimize", http.MethodPost, "/v1/optimize", `{"op":{"name":"qk","m":512,"k":64,"l":512},"buffer":65536}`},
		{"plan", http.MethodPost, "/v1/plan", `{"name":"attn","ops":[{"name":"qk","m":512,"k":64,"l":512},{"name":"sv","m":512,"k":512,"l":64}],"buffer":65536}`},
		{"search", http.MethodPost, "/v1/search", `{"op":{"name":"t","m":48,"k":32,"l":40},"buffer":1024,"engine":"exhaustive"}`},
		{"evaluate", http.MethodPost, "/v1/evaluate", `{"model":"BERT"}`},
		{"unknown model", http.MethodPost, "/v1/evaluate", `{"model":"no-such-model"}`},
		{"invalid request", http.MethodPost, "/v1/optimize", `{"op":{"m":8,"k":8,"l":8},"buffer":64,"bogus":1}`},
		{"buffer too small", http.MethodPost, "/v1/optimize", `{"op":{"m":8,"k":8,"l":8},"buffer":1}`},
		{"method not allowed", http.MethodGet, "/v1/search", ``},
	}
	check := func(name, method, path, body string) {
		t.Helper()
		direct := do(replica.URL, method, path, body)
		routed := do(front.URL, method, path, body)
		if direct.status != routed.status || direct.header != routed.header || direct.close != routed.close || direct.body != routed.body {
			t.Errorf("%s: routed %d %q close=%v %q, direct %d %q close=%v %q", name,
				routed.status, routed.header, routed.close, routed.body, direct.status, direct.header, direct.close, direct.body)
		}
		if routed.length != int64(len(routed.body)) {
			t.Errorf("%s: routed Content-Length %d for a %d-byte body", name, routed.length, len(routed.body))
		}
	}
	for _, tc := range cases {
		check(tc.name, tc.method, tc.path, tc.body)
	}

	// A draining replica answers 503 with Connection: close; with no other
	// replica to fail over to, the router passes it through.
	svc.BeginDrain()
	check("drain", http.MethodPost, "/v1/optimize", cases[0].body)
	if drained := do(front.URL, http.MethodPost, "/v1/optimize", cases[0].body); drained.status != http.StatusServiceUnavailable || !drained.close {
		t.Fatalf("routed drain reply %d close=%v, want 503 with Connection: close", drained.status, drained.close)
	}
}

// BenchmarkProxyHandler is the router's own per-request work over
// fleetbench search-hot's 54 request bodies — body buffering, selection,
// breaker admission, the attempt, and the one-write delivery — against a
// Transport that answers a canned reply without a socket.
func BenchmarkProxyHandler(b *testing.B) {
	const canned = `{"engine":"exhaustive","dataflow":{"order":"MKL","tm":8,"tk":4,"tl":8,"nra":"LA","memory_access":1234,"per_tensor":[1,2,3]},"evaluations":99}` + "\n"
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		_, _ = io.Copy(io.Discard, req.Body)
		return &http.Response{
			StatusCode:    http.StatusOK,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(canned)),
			ContentLength: int64(len(canned)),
		}, nil
	})
	r, err := New(Config{Backends: []string{"http://replica-a", "http://replica-b"}, Transport: rt})
	if err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	for _, engine := range []string{"exhaustive", "coarse"} {
		for _, mm := range experiments.ServeLoadOps() {
			for _, buf := range []int64{128, 512, 2048} {
				bodies = append(bodies, []byte(`{"op":{"name":"`+mm.Name+`","m":`+strconv.Itoa(mm.M)+
					`,"k":`+strconv.Itoa(mm.K)+`,"l":`+strconv.Itoa(mm.L)+`},"buffer":`+
					strconv.FormatInt(buf, 10)+`,"engine":"`+engine+`"}`))
			}
		}
	}
	// Requests are built once and their bodies rewound, so the loop times
	// the router rather than request construction.
	reqs := make([]*http.Request, len(bodies))
	rbs := make([]*rewindBody, len(bodies))
	for i := range bodies {
		rbs[i] = &rewindBody{}
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/search", rbs[i])
		reqs[i].Header.Set("Content-Type", "application/json")
	}
	h := r.Handler()
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, req := range reqs {
			rbs[j].Reset(bodies[j])
			clear(w.h)
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("status %d", w.code)
			}
		}
	}
}

// rewindBody is a request body the benchmark can refill.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
