package h1

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fakeConn is a client connection that sends its input, then EOF, and
// keeps what the server writes.
type fakeConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *fakeConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *fakeConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *fakeConn) Close() error                     { return nil }
func (c *fakeConn) LocalAddr() net.Addr              { return fakeAddr{} }
func (c *fakeConn) RemoteAddr() net.Addr             { return fakeAddr{} }
func (c *fakeConn) SetDeadline(time.Time) error      { return nil }
func (c *fakeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fakeConn) SetWriteDeadline(time.Time) error { return nil }

type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

// FuzzServeConn feeds arbitrary client bytes to one connection. The server
// must return once the input ends, must not panic, and every reply it
// writes must parse with http.ReadResponse, body included.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /read HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
		"POST /read HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhelloGET /big HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /read HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nhi",
		"POST / HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nhi",
		"POST / HTTP/1.1\r\nHost: x\r\nExpect: other\r\nContent-Length: 2\r\n\r\nhi",
		"HEAD /big HTTP/1.1\r\nHost: x\r\n\r\nHEAD /empty HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /close HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET / HTTP/1.0\r\n\r\n",
		"GET /te HTTP/1.1\r\nHost: x\r\n\r\nGET /abort HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a b\r\nBad Name: 1\r\n\r\n",
		"GET / HTTP/2.0\r\nHost: x\r\n\r\n",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nshort",
		"\x16\x03\x01\x00\xa5\x01\x00\x00\xa1\x03\x03",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var logged bytes.Buffer
		prev := log.Writer()
		log.SetOutput(&logged)
		defer log.SetOutput(prev)
		var methods []string
		s := &Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			methods = append(methods, r.Method)
			switch r.URL.Path {
			case "/read":
				n, err := io.Copy(io.Discard, r.Body)
				fmt.Fprintf(w, "read %d %v\n", n, err)
			case "/close":
				w.Header().Set("Connection", "close")
				w.WriteHeader(http.StatusServiceUnavailable)
			case "/empty":
				w.WriteHeader(http.StatusNoContent)
				_, _ = w.Write([]byte("not sent"))
			case "/te":
				w.Header().Set("Transfer-Encoding", "chunked")
				_, _ = io.WriteString(w, "chunk")
			case "/big":
				_, _ = w.Write(bytes.Repeat([]byte("b"), 5000))
			case "/abort":
				panic(http.ErrAbortHandler)
			default:
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprintf(w, "{\"path\":%q}\n", r.URL.Path)
			}
		})}
		conn := &fakeConn{in: bytes.NewReader(in)}
		s.newConn(conn).serve()
		if strings.Contains(logged.String(), "panic") {
			t.Fatalf("server panicked: %s", logged.String())
		}

		out := conn.out.String()
		br := bufio.NewReader(strings.NewReader(out))
		for n := 0; ; {
			if _, err := br.Peek(1); err == io.EOF {
				break
			}
			method := http.MethodGet
			if n < len(methods) {
				method = methods[n]
			}
			resp, err := http.ReadResponse(br, &http.Request{Method: method})
			if err != nil {
				t.Fatalf("reply %d does not parse: %v\nreplies:\n%q", n, err, out)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("reply %d body: %v\nreplies:\n%q", n, err, out)
			}
			if resp.StatusCode >= http.StatusOK {
				n++
			}
		}
	})
}

// Request heads the fleet sends, and one of each kind the scanner leaves
// to http.ReadRequest.
var requestSeeds = []string{
	// The relay's proxy attempt and probe.
	"POST /v1/search HTTP/1.1\r\nHost: 127.0.0.1:8081\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
	"GET /readyz HTTP/1.1\r\nHost: 127.0.0.1:8081\r\n\r\n",
	// The client package over net/http.Transport.
	"POST /v1/optimize HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: 5\r\nContent-Type: application/json\r\nAccept-Encoding: gzip\r\n\r\n{}\r\n\r\n",
	"GET /v1/version HTTP/1.1\r\nHost: x\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n",
	"POST /v1/plan HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
	// Read, with canonicalized names, trimmed values and a short body.
	"POST /a/b;c=d,e:f@g HTTP/1.1\r\nhost:\tx \r\ncontent-LENGTH: 007\r\nx_y: a\tb\r\nX-Y: \xff\r\nX-Empty:\r\n\r\nabc",
	// Declined.
	"GET /v1/version HTTP/1.0\r\nHost: x\r\n\r\n",
	"PUT /v1/version HTTP/1.1\r\nHost: x\r\n\r\n",
	"GET http://x/v1/version HTTP/1.1\r\nHost: x\r\n\r\n",
	"GET /v1/version?a=b HTTP/1.1\r\nHost: x\r\n\r\n",
	"GET /v1%2Fversion HTTP/1.1\r\nHost: x\r\n\r\n",
	"POST /v1/search HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
	"POST /v1/search HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n{}",
	"GET / HTTP/1.1\r\nHost: x\r\nPragma: no-cache\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: x\r\nX-Fold: a\r\n b\r\n\r\n",
	"GET / HTTP/1.1\nHost: x\n\n",
	"GET / HTTP/1.1\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
	"GET / HTTP/1.1\r\nHost:\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
	"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: +2\r\n\r\n{}",
	"GET / HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: x\r\nBad Name: 1\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: x\r\nX-Bad: a\x01b\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: x\r\n",
}

// fleetRequest warms a scanner with the relay's request before each input,
// so the inputs meet a header map, values and interned strings in reuse.
const fleetRequest = "POST /v1/search HTTP/1.1\r\nHost: 127.0.0.1:8081\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"

// FuzzRequestHead checks the scanner against http.ReadRequest: on any
// bytes it either declines and consumes nothing, or http.ReadRequest reads
// the same bytes and agrees on the method, request URI, URL, protocol,
// Host, header map, ContentLength, Close, the bytes the head took, and the
// body.
func FuzzRequestHead(f *testing.F) {
	for _, seed := range requestSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var h requestHead
		warm := bufio.NewReader(strings.NewReader(fleetRequest))
		_, _ = warm.Peek(1)
		if _, ok := h.scan(warm); !ok {
			t.Fatal("the relay's request head was declined")
		}

		br := bufio.NewReader(bytes.NewReader(in))
		_, _ = br.Peek(1)
		buffered := br.Buffered()
		got, ok := h.scan(br)
		if !ok {
			if br.Buffered() != buffered {
				t.Fatalf("declined %q after consuming %d bytes", in, buffered-br.Buffered())
			}
			return
		}
		gotHead := buffered - br.Buffered()

		src := bytes.NewReader(in)
		wbr := bufio.NewReader(src)
		want, err := http.ReadRequest(wbr)
		if err != nil {
			t.Fatalf("scanned %q, which http.ReadRequest rejects: %v", in, err)
		}
		wantHead := len(in) - src.Len() - wbr.Buffered()
		if got.Method != want.Method || got.RequestURI != want.RequestURI || *got.URL != *want.URL ||
			got.Proto != want.Proto || got.ProtoMajor != want.ProtoMajor || got.ProtoMinor != want.ProtoMinor ||
			got.Host != want.Host || got.ContentLength != want.ContentLength || got.Close != want.Close ||
			!reflect.DeepEqual(got.Header, want.Header) || got.TransferEncoding != nil || want.TransferEncoding != nil ||
			gotHead != wantHead {
			t.Fatalf("%q:\n scanner:  %s %q %#v %s Host=%q %v len=%d close=%v head=%d\n net/http: %s %q %#v %s Host=%q %v len=%d close=%v head=%d",
				in, got.Method, got.RequestURI, *got.URL, got.Proto, got.Host, got.Header, got.ContentLength, got.Close, gotHead,
				want.Method, want.RequestURI, *want.URL, want.Proto, want.Host, want.Header, want.ContentLength, want.Close, wantHead)
		}
		gotBody, gotErr := io.ReadAll(got.Body)
		wantBody, wantErr := io.ReadAll(want.Body)
		if !bytes.Equal(gotBody, wantBody) || gotErr != wantErr {
			t.Fatalf("%q: body %q %v, net/http %q %v", in, gotBody, gotErr, wantBody, wantErr)
		}
	})
}

// fleetReply warms a scanner with a replica's reply before each input.
const fleetReply = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: Tue, 20 Oct 2026 09:00:00 GMT\r\nContent-Length: 2\r\n\r\n{}"

// FuzzReplyHead checks the scanner against http.ReadResponse: on any bytes
// answering a GET or a POST it either declines and consumes nothing, or
// http.ReadResponse reads the same bytes and agrees on the status,
// Content-Length, Close, Content-Type, Retry-After, the bytes the head
// took, and the body.
func FuzzReplyHead(f *testing.F) {
	for _, seed := range []string{
		// What internal/h1 writes: a 200, an error envelope, 429 with
		// Retry-After, the drain 503, and the mux's 404.
		fleetReply,
		"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nDate: Tue, 20 Oct 2026 09:00:00 GMT\r\nContent-Length: 4\r\n\r\n{}\r\n",
		"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nRetry-After: 1\r\nDate: Tue, 20 Oct 2026 09:00:00 GMT\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Type: application/json\r\nDate: Tue, 20 Oct 2026 09:00:00 GMT\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nX-Content-Type-Options: nosniff\r\nDate: Tue, 20 Oct 2026 09:00:00 GMT\r\nContent-Length: 19\r\n\r\n404 page not found\n",
		"HTTP/1.1 499 status code 499\r\nContent-Length: 0\r\n\r\n",
		// Read, with a short body, odd case and a second Content-Type.
		"HTTP/1.1 200\r\ncontent-length: 10\r\ncontent-type:\r\nContent-Type: b\r\nretry-after: \t7 \r\n\r\nabc",
		// Declined.
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\nuntil close",
		"HTTP/1.1 204 No Content\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-Fold: a\r\n b\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Length: 0\n\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nConnection: keep-alive, close\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n",
	} {
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, in []byte, post bool) {
		method := http.MethodGet
		if post {
			method = http.MethodPost
		}
		var s Scanner
		warm := bufio.NewReader(strings.NewReader(fleetReply))
		_, _ = warm.Peek(1)
		if _, ok := s.ScanReply(warm); !ok {
			t.Fatal("a replica's reply head was declined")
		}

		br := bufio.NewReader(bytes.NewReader(in))
		_, _ = br.Peek(1)
		buffered := br.Buffered()
		got, ok := s.ScanReply(br)
		if !ok {
			if br.Buffered() != buffered {
				t.Fatalf("declined %q after consuming %d bytes", in, buffered-br.Buffered())
			}
			return
		}
		gotHead := buffered - br.Buffered()

		src := bytes.NewReader(in)
		wbr := bufio.NewReader(src)
		want, err := http.ReadResponse(wbr, &http.Request{Method: method})
		if err != nil {
			t.Fatalf("scanned %q, which http.ReadResponse rejects: %v", in, err)
		}
		wantHead := len(in) - src.Len() - wbr.Buffered()
		if got.Status != want.StatusCode || got.ContentLength != want.ContentLength || got.Close != want.Close ||
			got.ContentType != want.Header.Get("Content-Type") || got.RetryAfter != want.Header.Get("Retry-After") ||
			gotHead != wantHead {
			t.Fatalf("%q:\n scanner:  %+v head=%d\n net/http: %d len=%d close=%v type=%q retry=%q head=%d",
				in, got, gotHead, want.StatusCode, want.ContentLength, want.Close,
				want.Header.Get("Content-Type"), want.Header.Get("Retry-After"), wantHead)
		}
		gotBody, gotErr := io.ReadAll(io.LimitReader(br, got.ContentLength))
		if gotErr == nil && int64(len(gotBody)) < got.ContentLength {
			gotErr = io.ErrUnexpectedEOF
		}
		wantBody, wantErr := io.ReadAll(want.Body)
		if !bytes.Equal(gotBody, wantBody) || gotErr != wantErr {
			t.Fatalf("%q: body %q %v, net/http %q %v", in, gotBody, gotErr, wantBody, wantErr)
		}
	})
}
