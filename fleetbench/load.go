package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"fusecu/api"
	"fusecu/client"
)

// clients is the closed loop's client count. Callers such as a compiler
// mapping a model wait for each answer before asking the next, so each
// client sends its next request only when the previous one returned; two
// clients match the two cores the benchmark is sized for.
const clients = 2

// item is one unit of closed-loop work: a sequence position (the request
// ID) and the index of the request sent at it.
type item struct {
	id  int64
	req int
}

// drive runs a closed loop: n workers each take the next item from next
// and hand it to do, until next reports no more work or ctx ends. Items
// already taken are finished, so the completed items are exactly the ones
// next handed out. drive returns once every worker has stopped.
func drive(ctx context.Context, n int, next func() (item, bool), do func(worker int, it item)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				it, ok := next()
				if !ok {
					return
				}
				do(w, it)
			}
		}(w)
	}
	wg.Wait()
}

// timed hands out the sequence until d has passed.
func timed(seq *sequence, d time.Duration) func() (item, bool) {
	end := time.Now().Add(d)
	return func() (item, bool) {
		if time.Now().After(end) {
			return item{}, false
		}
		id, req := seq.next()
		return item{id, req}, true
	}
}

// passes hands out the sequence until d has passed and the pass in
// progress is complete, so a run measures whole passes over the request
// set. Without this a workload whose requests differ widely in cost would
// measure a different seeded subset of them on every run.
func passes(seq *sequence, d time.Duration) func() (item, bool) {
	end := time.Now().Add(d)
	return func() (item, bool) {
		id, req, ok := seq.nextInPass(func() bool { return time.Now().After(end) })
		return item{id, req}, ok
	}
}

// listed hands out the given request indices once each, in order.
func listed(reqs []int) func() (item, bool) {
	var mu sync.Mutex
	pos := 0
	return func() (item, bool) {
		mu.Lock()
		defer mu.Unlock()
		if pos == len(reqs) {
			return item{}, false
		}
		pos++
		return item{int64(pos - 1), reqs[pos-1]}, true
	}
}

// newClient returns a client of the public client package with retries
// off, whose transport opens at most one connection per closed-loop
// client to any host.
func newClient(baseURL string) (*client.Client, error) {
	return client.New(client.Config{
		BaseURL: baseURL,
		HTTPClient: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
		MaxAttempts:      1,
		BreakerThreshold: -1,
	})
}

// outcome is one request's result as the client saw it.
type outcome struct {
	status int     // HTTP status; 0 for a transport failure
	answer []int64 // the response reduced for the oracle; nil unless 200
	err    error
}

// send issues r through c and reduces a 200 response to its checked values.
func send(ctx context.Context, c *client.Client, r request) outcome {
	var (
		answer []int64
		err    error
	)
	switch b := r.Body.(type) {
	case *api.OptimizeRequest:
		var resp *api.OptimizeResponse
		if resp, err = c.Optimize(ctx, *b); err == nil {
			answer = optimizeAnswer(resp)
		}
	case *api.PlanRequest:
		var resp *api.PlanResponse
		if resp, err = c.Plan(ctx, *b); err == nil {
			answer = planAnswer(resp)
		}
	case *api.EvaluateRequest:
		var resp *api.EvaluateResponse
		if resp, err = c.Evaluate(ctx, *b); err == nil {
			answer = evaluateAnswer(resp)
		}
	case *api.SearchRequest:
		var resp *api.SearchResponse
		if resp, err = c.Search(ctx, *b); err == nil {
			answer = searchAnswer(resp)
		}
	}
	if err == nil {
		return outcome{status: http.StatusOK, answer: answer}
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return outcome{status: apiErr.Status, err: err}
	}
	return outcome{err: err}
}

// The answer reductions list the values the oracle checks, per-operator
// memory access first (see expectation.LB).

func optimizeAnswer(r *api.OptimizeResponse) []int64 {
	return []int64{r.Dataflow.MemoryAccess}
}

func searchAnswer(r *api.SearchResponse) []int64 {
	return []int64{r.Dataflow.MemoryAccess}
}

func planAnswer(r *api.PlanResponse) []int64 {
	out := make([]int64, 0, len(r.Groups)+2)
	for _, g := range r.Groups {
		out = append(out, g.MemoryAccess)
	}
	return append(out, r.TotalMA, r.UnfusedMA)
}

func evaluateAnswer(r *api.EvaluateResponse) []int64 {
	out := make([]int64, 0, 4*len(r.Results))
	for _, p := range r.Results {
		out = append(out, p.MemoryAccess, p.Cycles, p.MACs, int64(math.Float64bits(p.Utilization)))
	}
	return out
}

// record is one measured request.
type record struct {
	end     time.Duration // completion, since the phase began
	req     int
	latency time.Duration
	status  int
	wrong   bool
	err     error
}

// recorder collects records from concurrent workers.
type recorder struct {
	mu   sync.Mutex
	recs []record
}

func (r *recorder) add(rec record) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// phase sends requests from next through c with the closed loop, checking
// every 200 against the oracle.
func phase(ctx context.Context, c *client.Client, reqs []request, want oracle, next func() (item, bool)) []record {
	var rec recorder
	began := time.Now()
	drive(ctx, clients, next, func(_ int, it item) {
		r := reqs[it.req]
		start := time.Now()
		out := send(ctx, c, r)
		lat := time.Since(start)
		rec.add(record{
			end: time.Since(began), req: it.req, latency: lat, status: out.status,
			wrong: out.status == http.StatusOK && !want.check(r.Key, out.answer), err: out.err,
		})
	})
	return rec.recs
}

// blockSpan is the least length of one block of the measured phase.
const blockSpan = 2 * time.Second

// measuredPhase runs the measured phase: blocks of whole passes over seq, each
// at least blockSpan long, until the time under load is within half a block
// of d (principle-llm's pass alone outlasts a block, so there a block is one
// pass). The host is probed before the first block and after each one, with
// no request in flight. Record end times count time under load only, so the
// probes leave no gaps in the windows.
func measuredPhase(ctx context.Context, c *client.Client, reqs []request, want oracle, seq *sequence,
	d time.Duration, probe *hostProbe) ([]record, []float64, error) {
	var (
		recs   []record
		probes []float64
		loaded time.Duration
	)
	probeNow := func() error {
		s, err := probe.measure(ctx)
		if err == nil {
			probes = append(probes, s)
		}
		return err
	}
	if err := probeNow(); err != nil {
		return nil, nil, err
	}
	for {
		var block time.Duration
		for _, r := range phase(ctx, c, reqs, want, passes(seq, blockSpan)) {
			block = max(block, r.end)
			r.end += loaded
			recs = append(recs, r)
		}
		loaded += block
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := probeNow(); err != nil {
			return nil, nil, err
		}
		if loaded+block/2 >= d {
			return recs, probes, nil
		}
	}
}

// tally summarises records: attempted, non-200 and wrong answers.
func tally(recs []record) (attempted, failed, wrong int) {
	for _, r := range recs {
		attempted++
		if r.status != http.StatusOK {
			failed++
		}
		if r.wrong {
			wrong++
		}
	}
	return
}

func latenciesMS(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = float64(r.latency) / float64(time.Millisecond)
	}
	return out
}

// windowSize is the number of requests per measurement window: enough for
// a p99 with ten samples beyond it.
const windowSize = 1000

// windowed splits records into max(1, n/windowSize) consecutive windows of
// near-equal size, in completion order.
func windowed(recs []record) [][]record {
	sort.Slice(recs, func(i, j int) bool { return recs[i].end < recs[j].end })
	n := len(recs)
	k := max(1, n/windowSize)
	out := make([][]record, k)
	for i := range out {
		out[i] = recs[i*n/k : (i+1)*n/k]
	}
	return out
}

// windowMetrics are the end-to-end timings of one window.
type windowMetrics struct {
	rps, p50 float64
	tail     tail
}

// measureWindows times each window: successful requests per second since
// the previous window ended, and the latency median and tail in ms.
func measureWindows(ws [][]record) []windowMetrics {
	out := make([]windowMetrics, len(ws))
	var prev time.Duration
	for i, w := range ws {
		last := w[len(w)-1].end
		_, failed, _ := tally(w)
		lat := latenciesMS(w)
		out[i] = windowMetrics{
			rps:  float64(len(w)-failed) / (last - prev).Seconds(),
			p50:  median(lat),
			tail: tailPercentile(lat, 0.99),
		}
		prev = last
	}
	return out
}

// firstProblem describes the first failed or wrong record, or is empty.
func firstProblem(recs []record, reqs []request) string {
	for _, r := range recs {
		switch {
		case r.status != http.StatusOK:
			return fmt.Sprintf("%s failed: %v", reqs[r.req].Key, r.err)
		case r.wrong:
			return fmt.Sprintf("%s answered differently from the oracle", reqs[r.req].Key)
		}
	}
	return ""
}
