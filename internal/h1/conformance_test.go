package h1_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"fusecu/internal/h1"
	"fusecu/internal/route"
	"fusecu/internal/service"
)

// serveH1 serves h with an h1.Server on a loopback port until the test ends.
func serveH1(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &h1.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-errc; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

// serveOracle serves h with net/http.Server, the behaviour h1 must match.
func serveOracle(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.Listener.Addr().String()
}

// reply is one response as a client sees it, Date left out.
type reply struct {
	Proto         string
	Status        int
	Header        http.Header
	Close         bool
	ContentLength int64
	Body          string
}

// exchange writes raw to addr and reads the replies to the requests whose
// methods are listed, in order; interim 1xx replies are kept but consume no
// method. It then reports whether the server kept the connection open, by
// sending one more request and reading its reply.
func exchange(t *testing.T, addr, raw string, methods []string) ([]reply, bool) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may stop reading early (an oversized head or body), so the
	// write runs beside the reads and its error is expected then.
	go func() { _, _ = io.WriteString(conn, raw) }()
	br := bufio.NewReader(conn)
	var out []reply
	for i := 0; i < len(methods); {
		resp, err := http.ReadResponse(br, &http.Request{Method: methods[i]})
		if err != nil {
			t.Fatalf("reply %d: %v", len(out), err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reply %d body: %v", len(out), err)
		}
		resp.Header.Del("Date")
		out = append(out, reply{resp.Proto, resp.StatusCode, resp.Header, resp.Close, resp.ContentLength, string(body)})
		if resp.StatusCode >= 200 {
			i++
		}
		if resp.Close {
			break
		}
	}
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: probe\r\n\r\n"); err != nil {
		return out, false
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return out, false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return out, err == nil && resp.StatusCode == http.StatusOK
}

func post(path, body string, extra ...string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: fusecu\r\nContent-Type: application/json\r\n" +
		strings.Join(extra, "") + "Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

func get(path string) string { return "GET " + path + " HTTP/1.1\r\nHost: fusecu\r\n\r\n" }

type conformanceCase struct {
	name    string
	raw     string
	methods []string // one per final reply expected
}

// endpointCases are each endpoint's 200 and error replies.
var endpointCases = []conformanceCase{
	{"optimize", post("/v1/optimize", `{"op":{"name":"qk","m":512,"k":64,"l":512},"buffer":65536}`), []string{"POST"}},
	{"plan", post("/v1/plan", `{"name":"attn","ops":[{"name":"qk","m":512,"k":64,"l":512},{"name":"sv","m":512,"k":512,"l":64}],"buffer":65536}`), []string{"POST"}},
	{"search", post("/v1/search", `{"op":{"name":"t","m":48,"k":32,"l":40},"buffer":1024,"engine":"exhaustive"}`), []string{"POST"}},
	{"evaluate", post("/v1/evaluate", `{"model":"BERT"}`), []string{"POST"}},
	{"version", get("/v1/version"), []string{"GET"}},
	{"healthz", get("/healthz"), []string{"GET"}},
	{"readyz", get("/readyz"), []string{"GET"}},
	{"unknown model", post("/v1/evaluate", `{"model":"no-such-model"}`), []string{"POST"}},
	{"invalid request", post("/v1/optimize", `{"op":{"m":8,"k":8,"l":8},"buffer":64,"bogus":1}`), []string{"POST"}},
	{"buffer too small", post("/v1/optimize", `{"op":{"m":8,"k":8,"l":8},"buffer":1}`), []string{"POST"}},
	{"method not allowed", get("/v1/search"), []string{"GET"}},
	{"unknown path", get("/v2/nothing"), []string{"GET"}},
}

const optimizeBody = `{"op":{"m":64,"k":32,"l":48},"buffer":4096}`

// protocolCases exercise the server itself rather than a handler.
var protocolCases = []conformanceCase{
	{"HTTP/1.0", "POST /v1/optimize HTTP/1.0\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(optimizeBody)) + "\r\n\r\n" + optimizeBody, []string{"POST"}},
	{"HTTP/1.0 keep-alive", "POST /v1/optimize HTTP/1.0\r\nConnection: keep-alive\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(optimizeBody)) + "\r\n\r\n" + optimizeBody, []string{"POST"}},
	{"HTTP/1.0 GET keep-alive", "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", []string{"GET"}},
	{"Connection: close", post("/v1/optimize", optimizeBody, "Connection: close\r\n"), []string{"POST"}},
	{"chunked body", "POST /v1/optimize HTTP/1.1\r\nHost: fusecu\r\nTransfer-Encoding: chunked\r\n\r\n" +
		strconv.FormatInt(int64(len(optimizeBody)), 16) + "\r\n" + optimizeBody + "\r\n0\r\n\r\n", []string{"POST"}},
	{"pipelined", post("/v1/optimize", optimizeBody) + get("/v1/version"), []string{"POST", "GET"}},
	{"HEAD", "HEAD /healthz HTTP/1.1\r\nHost: fusecu\r\n\r\n", []string{"HEAD"}},
	{"HEAD not allowed", "HEAD /v1/version HTTP/1.1\r\nHost: fusecu\r\n\r\n", []string{"HEAD"}},
	{"Expect: 100-continue", post("/v1/optimize", optimizeBody, "Expect: 100-continue\r\n"), []string{"POST"}},
	{"Expect: 100-continue unread", post("/healthz", optimizeBody, "Expect: 100-continue\r\n"), []string{"POST"}},
	{"unknown Expect", post("/v1/optimize", optimizeBody, "Expect: teapot\r\n"), []string{"POST"}},
	{"unread body drained", post("/healthz", strings.Repeat("x", 10<<10)), []string{"POST"}},
	{"unread body over the drain limit", post("/healthz", strings.Repeat("x", 600<<10)), []string{"POST"}},
	{"stray CRLF after POST", post("/v1/optimize", optimizeBody) + "\r\n" + get("/healthz"), []string{"POST", "GET"}},
	{"missing Host", "GET /healthz HTTP/1.1\r\n\r\n", []string{"GET"}},
	{"two Hosts", "GET /healthz HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", []string{"GET"}},
	{"malformed Host", "GET /healthz HTTP/1.1\r\nHost: a b\r\n\r\n", []string{"GET"}},
	{"bad header value", "GET /healthz HTTP/1.1\r\nHost: fusecu\r\nX-Bad: a\x01b\r\n\r\n", []string{"GET"}},
	{"bad header name", "GET /healthz HTTP/1.1\r\nHost: fusecu\r\nBad Name: x\r\n\r\n", []string{"GET"}},
	{"oversized header", "GET /healthz HTTP/1.1\r\nHost: fusecu\r\nX-Big: " + strings.Repeat("a", 1<<20+8<<10) + "\r\n\r\n", []string{"GET"}},
	{"unsupported transfer encoding", "POST /healthz HTTP/1.1\r\nHost: fusecu\r\nTransfer-Encoding: gzip\r\n\r\n", []string{"POST"}},
	{"HTTP/3.0", "GET /healthz HTTP/3.0\r\nHost: fusecu\r\n\r\n", []string{"GET"}},
	{"HTTP/2 preface", "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n", []string{"PRI"}},
	{"garbage", "\x16\x03\x01\x00\xa5\x01\x00\x00\xa1\x03\x03garbage\r\n\r\n", []string{"GET"}},
}

// TestMatchesNetHTTP sends the same bytes to net/http.Server and to h1,
// each serving the same handler, and requires the same replies — status,
// headers but Date, body, Connection: close — and the same keep-alive
// decision. It covers every endpoint through a replica and through the
// router, a draining replica, and the protocol cases.
func TestMatchesNetHTTP(t *testing.T) {
	svc := service.New(service.Config{})
	svc.SetReady(true)
	replica := svc.Handler()
	upstream := serveOracle(t, replica)
	router, err := route.New(route.Config{Backends: []string{"http://" + upstream}})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.CheckBackends(context.Background()); err != nil {
		t.Fatal(err)
	}
	draining := service.New(service.Config{})
	draining.BeginDrain()

	compare := func(t *testing.T, h http.Handler, cases []conformanceCase) {
		oracle, h1Addr := serveOracle(t, h), serveH1(t, h)
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				want, wantOpen := exchange(t, oracle, tc.raw, tc.methods)
				got, gotOpen := exchange(t, h1Addr, tc.raw, tc.methods)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("replies differ:\n h1:       %+v\n net/http: %+v", got, want)
				}
				if gotOpen != wantOpen {
					t.Errorf("connection open after the replies: h1 %v, net/http %v", gotOpen, wantOpen)
				}
			})
		}
	}
	t.Run("replica", func(t *testing.T) { compare(t, replica, endpointCases) })
	t.Run("router", func(t *testing.T) { compare(t, router.Handler(), endpointCases) })
	t.Run("drain", func(t *testing.T) {
		compare(t, draining.Handler(), []conformanceCase{
			{"optimize", post("/v1/optimize", optimizeBody), []string{"POST"}},
			{"readyz", get("/readyz"), []string{"GET"}},
		})
	})
	t.Run("protocol", func(t *testing.T) { compare(t, replica, protocolCases) })
}

// TestLongReplyHasContentLength: a reply longer than net/http.Server's
// 2 KiB chunking threshold leaves h1 whole, with its Content-Length, and
// with the same body and headers otherwise.
func TestLongReplyHasContentLength(t *testing.T) {
	long := strings.Repeat("0123456789abcdef", 1<<10)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		_, _ = io.WriteString(w, long)
	})
	raw, methods := get("/long"), []string{"GET"}
	want, wantOpen := exchange(t, serveOracle(t, h), raw, methods)
	got, gotOpen := exchange(t, serveH1(t, h), raw, methods)
	if len(want) != 1 || want[0].ContentLength != -1 {
		t.Fatalf("net/http reply %+v, want one chunked reply", want)
	}
	if len(got) != 1 || got[0].ContentLength != int64(len(long)) || got[0].Header.Get("Content-Length") != fmt.Sprint(len(long)) {
		t.Fatalf("h1 reply %+v, want Content-Length %d", got, len(long))
	}
	got[0].Header.Del("Content-Length")
	got[0].ContentLength = -1
	if !reflect.DeepEqual(got, want) || gotOpen != wantOpen {
		t.Errorf("replies differ beyond framing:\n h1:       %+v %v\n net/http: %+v %v", got, gotOpen, want, wantOpen)
	}
}

// TestShutdownFinishesRunningRequests: Shutdown closes an idle connection
// at once, lets a running request finish with Connection: close, returns
// only after it has, and makes Serve return http.ErrServerClosed; a
// Shutdown whose context ends first returns the context's error.
func TestShutdownFinishesRunningRequests(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
		}
		_, _ = io.WriteString(w, "ok\n")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &h1.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	dial := func(path string) (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := io.WriteString(conn, get(path)); err != nil {
			t.Fatal(err)
		}
		return conn, bufio.NewReader(conn)
	}
	_, idle := dial("/fast")
	if resp, err := http.ReadResponse(idle, nil); err != nil || resp.Close {
		t.Fatalf("first reply %v close=%v", err, resp != nil && resp.Close)
	} else if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	_, busy := dial("/slow")
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()
	if _, err := idle.ReadByte(); err == nil {
		t.Fatal("idle connection still open during Shutdown")
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v while a request was running", err)
	default:
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(canceled); err != context.Canceled {
		t.Fatalf("Shutdown with an ended context returned %v", err)
	}

	close(release)
	resp, err := http.ReadResponse(busy, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != "ok\n" || !resp.Close {
		t.Fatalf("running request's reply %q %v close=%v, want ok with Connection: close", body, err, resp.Close)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
