package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The host probe measures how fast the machine moves requests right now, on
// work that touches no fusecu code. The benchmark runs on a few cores of a
// shared host whose speed drifts by a third over minutes; the probe, taken
// alongside a run, lets a transport-bound workload report its timings at a
// fixed reference speed. A probe is probeEchoes loopback HTTP round trips of a small JSON
// body to a standard-library server in this process, spread over `clients`
// goroutines at once, so it exercises what dominates a fleet request
// (JSON, syscalls, loopback TCP, waking goroutines on other cores). It runs
// only while the fleet is idle, between blocks of the measured phase, so it
// neither competes with the fleet nor is slowed by it.

const (
	// probeEchoes round trips make one timed round; a probe is the median
	// of probeReps rounds.
	probeEchoes = 200
	probeReps   = 3
	// probeRefMS is a probe's time on the reference host, a 2-vCPU VM in a
	// quiet spell. A transport-bound run whose host probes slower by a factor
	// h reports its times divided by h and its rates multiplied by h.
	probeRefMS = 15.0
)

// hostProbe holds the loopback echo server a probe talks to.
type hostProbe struct {
	srv    *http.Server
	ln     net.Listener
	url    string
	client *http.Client
	served chan struct{}
}

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	p := &hostProbe{
		ln:     ln,
		url:    "http://" + ln.Addr().String() + "/echo",
		served: make(chan struct{}),
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var v []probeItem
			if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(v)
		})},
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}},
	}
	go func() {
		defer close(p.served)
		_ = p.srv.Serve(ln)
	}()
	return p, nil
}

// close stops the echo server and returns once it has stopped serving.
func (p *hostProbe) close() {
	p.client.CloseIdleConnections()
	_ = p.srv.Close()
	<-p.served
}

// measure runs one probe and returns its time in ms.
func (p *hostProbe) measure(ctx context.Context) (float64, error) {
	body, err := json.Marshal(probeItems(8))
	if err != nil {
		return 0, err
	}
	var rounds []float64
	for k := 0; k < probeReps; k++ {
		start := time.Now()
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			first error
		)
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < probeEchoes/clients; i++ {
					if err := p.echo(ctx, body); err != nil {
						mu.Lock()
						first = cmp.Or(first, err)
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
		if first != nil {
			return 0, first
		}
		rounds = append(rounds, ms(time.Since(start)))
	}
	return median(rounds), nil
}

func (p *hostProbe) echo(ctx context.Context, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	defer resp.Body.Close()
	var v []probeItem
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || len(v) != 8 {
		return fmt.Errorf("host probe: echo answered %d with %d items", resp.StatusCode, len(v))
	}
	return nil
}

type probeItem struct {
	Name  string  `json:"name"`
	M     int64   `json:"m"`
	K     int64   `json:"k"`
	Score float64 `json:"score"`
}

func probeItems(n int) []probeItem {
	r := rand.New(rand.NewSource(1))
	items := make([]probeItem, n)
	for i := range items {
		items[i] = probeItem{Name: "op" + strconv.Itoa(i), M: r.Int63n(1 << 20), K: r.Int63n(1 << 20), Score: r.Float64()}
	}
	return items
}

// hostFactor is how much slower than the reference host this run's host
// probed: the median probe time over probeRefMS.
func hostFactor(probes []float64) float64 { return median(probes) / probeRefMS }
