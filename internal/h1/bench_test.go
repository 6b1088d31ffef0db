package h1

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strconv"
	"testing"

	"fusecu/internal/experiments"
)

// BenchmarkServeConn is the server's own per-request work: one keep-alive
// connection carries fleetbench search-hot's 54 request bodies, in the
// wire format of the router's relay, to a handler that drains the body and
// answers a canned reply. The connection is a scripted in-memory net.Conn
// and the server loop runs on the benchmark goroutine, so no goroutine
// hands a request or reply to another and the timing does not depend on
// scheduling. No socket is opened; one op is one request.
func BenchmarkServeConn(b *testing.B) {
	const canned = `{"engine":"exhaustive","dataflow":{"order":"MKL","tm":8,"tk":4,"tl":8,"nra":"LA","memory_access":1234,"per_tensor":[1,2,3]},"evaluations":99}` + "\n"
	contentType := []string{"application/json"}
	s := &Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Header()["Content-Type"] = contentType
		_, _ = io.WriteString(w, canned)
	})}
	var reqs [][]byte
	for _, engine := range []string{"exhaustive", "coarse"} {
		for _, mm := range experiments.ServeLoadOps() {
			for _, buf := range []int64{128, 512, 2048} {
				body := `{"op":{"name":"` + mm.Name + `","m":` + strconv.Itoa(mm.M) +
					`,"k":` + strconv.Itoa(mm.K) + `,"l":` + strconv.Itoa(mm.L) + `},"buffer":` +
					strconv.FormatInt(buf, 10) + `,"engine":"` + engine + `"}`
				reqs = append(reqs, []byte("POST /v1/search HTTP/1.1\r\nHost: 127.0.0.1:8081\r\n"+
					"Content-Type: application/json\r\nContent-Length: "+strconv.Itoa(len(body))+"\r\n\r\n"+body))
			}
		}
	}

	// One request first, to check the reply in full and learn its length:
	// every reply is as long as the first.
	first := &scriptedConn{reqs: reqs, n: 1}
	s.newConn(first).serve()
	resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(first.last)), nil)
	if err != nil {
		b.Fatal(err)
	}
	if got, err := io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK || string(got) != canned {
		b.Fatalf("first reply %d %q %v", resp.StatusCode, got, err)
	}

	c := &scriptedConn{reqs: reqs, n: b.N, want: len(first.last)}
	b.ReportAllocs()
	b.ResetTimer()
	s.newConn(c).serve()
	b.StopTimer()
	if c.replies != b.N || c.bad != 0 {
		b.Fatalf("%d replies, %d of them not %d bytes long, to %d requests", c.replies, c.bad, c.want, b.N)
	}
}

// scriptedConn is a client connection that sends n requests, cycling
// through reqs one request per Read, then EOF. It counts the replies; with
// want zero it keeps the last one, and otherwise counts those whose length
// is not want.
type scriptedConn struct {
	fakeConn
	reqs    [][]byte
	n       int
	sent    int
	rest    []byte // what is left of the request being sent
	want    int
	replies int
	bad     int
	last    []byte
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	if len(c.rest) == 0 {
		if c.sent == c.n {
			return 0, io.EOF
		}
		c.rest = c.reqs[c.sent%len(c.reqs)]
		c.sent++
	}
	n := copy(p, c.rest)
	c.rest = c.rest[n:]
	return n, nil
}

func (c *scriptedConn) Write(p []byte) (int, error) {
	c.replies++
	if c.want == 0 {
		c.last = append(c.last[:0], p...)
	} else if len(p) != c.want {
		c.bad++
	}
	return len(p), nil
}
