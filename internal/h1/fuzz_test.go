package h1

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
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
