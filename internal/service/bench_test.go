package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"fusecu/api"
	"fusecu/internal/experiments"
)

// BenchmarkSearchHotHandler is a replica's own work per request on
// fleetbench's search-hot workload: its 54 /v1/search bodies (exhaustive
// and coarse over the nine serve-load shapes × buffers 128, 512 and 2048)
// served in turn through Server.Handler — middleware, decode, walk and
// encode. As internal/h1 delivers requests, each carries
// context.Background(); one request value is reused, and the writer
// discards the reply. One op is one request, so allocs/op counts
// allocations per request.
func BenchmarkSearchHotHandler(b *testing.B) {
	h := New(Config{}).Handler()
	var bodies [][]byte
	for _, engine := range []string{"exhaustive", "coarse"} {
		for _, mm := range experiments.ServeLoadOps() {
			for _, buf := range []int64{128, 512, 2048} {
				body, err := json.Marshal(api.SearchRequest{
					Op:     api.OpSpec{Name: mm.Name, M: mm.M, K: mm.K, L: mm.L},
					Buffer: buf,
					Engine: engine,
				})
				if err != nil {
					b.Fatal(err)
				}
				bodies = append(bodies, body)
			}
		}
	}
	req, err := http.NewRequest(http.MethodPost, "http://127.0.0.1:8081/v1/search", nil)
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	var body bytes.Reader
	req.Body = io.NopCloser(&body)
	w := &discardWriter{header: http.Header{}}
	serve := func(i int) {
		raw := bodies[i%len(bodies)]
		body.Reset(raw)
		req.ContentLength = int64(len(raw))
		clear(w.header)
		w.status = 0
		h.ServeHTTP(w, req)
	}
	for i := range bodies {
		if serve(i); w.status != http.StatusOK {
			b.Fatalf("%s: status %d", bodies[i], w.status)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
}

// discardWriter is a ResponseWriter that keeps the status and discards
// the body.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}
