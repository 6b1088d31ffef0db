package route

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"fusecu/api"
)

// FuzzRelayResponse sends arbitrary bytes as an upstream's raw reply to a
// proxied request. Invariants: the router never panics; when the bytes
// parse as a final HTTP/1.1 reply with a readable body it passes that
// reply's status and body through verbatim with a matching Content-Length,
// and otherwise it answers its own 502 no_backend envelope; and no
// connection with unread bytes is ever returned to the relay's pool.
//
// The fake upstream answers one request per connection and then closes it,
// so a pooled connection is always stale by the next input and every input
// also exercises the relay's stale-connection retry.
func FuzzRelayResponse(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\r\n{\"ok\":true}\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n[]",
		"HTTP/1.1 200 OK\r\n\r\nbody until close",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\n\r\nxyz",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"not http",
		"",
	} {
		f.Add([]byte(seed))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = ln.Close() })
	var reply atomic.Pointer[[]byte]
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				req, err := http.ReadRequest(bufio.NewReader(c))
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, req.Body)
				_, _ = c.Write(*reply.Load())
			}()
		}
	}()

	r, err := New(Config{
		Backends: []string{ln.Addr().String()},
		// One backend that must never leave rotation, whatever it sends.
		EjectThreshold: math.MaxInt,
	})
	if err != nil {
		f.Fatal(err)
	}
	rl := r.cfg.Transport.(*relay)
	host := ln.Addr().String()
	h := r.Handler()

	f.Fuzz(func(t *testing.T, raw []byte) {
		reply.Store(&raw)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(searchBody(8, 8, 8))))

		// The oracle: what the same bytes parse to as a reply to a POST.
		var want []byte
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), &http.Request{Method: http.MethodPost})
		parsed := err == nil && resp.StatusCode >= http.StatusOK
		if parsed {
			want, err = io.ReadAll(resp.Body)
			parsed = err == nil
		}
		if parsed {
			if rec.Code != resp.StatusCode || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("reply %q relayed as %d %q, want %d %q", raw, rec.Code, rec.Body.Bytes(), resp.StatusCode, want)
			}
			if cl := rec.Header().Get("Content-Length"); resp.StatusCode != http.StatusNoContent &&
				resp.StatusCode != http.StatusNotModified && cl != strconv.Itoa(len(want)) {
				t.Fatalf("reply %q relayed with Content-Length %q, want %d", raw, cl, len(want))
			}
		} else {
			var env api.ErrorEnvelope
			if rec.Code != http.StatusBadGateway || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != api.CodeNoBackend {
				t.Fatalf("unparseable reply %q relayed as %d %q, want the 502 %s envelope", raw, rec.Code, rec.Body.Bytes(), api.CodeNoBackend)
			}
		}

		rl.mu.Lock()
		defer rl.mu.Unlock()
		for _, pc := range rl.idle[host] {
			if n := pc.br.Buffered(); n > 0 {
				t.Fatalf("reply %q left a pooled connection with %d unread bytes", raw, n)
			}
		}
	})
}
