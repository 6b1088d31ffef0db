package h1

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"strconv"
	"testing"

	"fusecu/internal/experiments"
)

// BenchmarkServeConn is the server's own per-request work: one keep-alive
// connection over net.Pipe carries fleetbench search-hot's 54 request
// bodies, in the wire format of the router's relay, to a handler that
// drains the body and answers a canned reply. No socket is opened; one op
// is one request.
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

	client, server := net.Pipe()
	c := s.newConn(server)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.serve()
	}()
	defer func() {
		_ = client.Close()
		<-done
	}()
	// net.Pipe hands each write to one read whole, so one read takes one
	// reply, and every reply is as long as the first.
	reply := make([]byte, 4096)
	exchange := func(req []byte) int {
		if _, err := client.Write(req); err != nil {
			b.Fatal(err)
		}
		n, err := client.Read(reply)
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	n := exchange(reqs[0])
	resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(reply[:n])), nil)
	if err != nil {
		b.Fatal(err)
	}
	if got, err := io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK || string(got) != canned {
		b.Fatalf("first reply %d %q %v", resp.StatusCode, got, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := exchange(reqs[i%len(reqs)]); m != n {
			b.Fatalf("reply of %d bytes, want %d", m, n)
		}
	}
}
