package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"fusecu/client"
)

// span is one timed call at a layer boundary. The spans of one request
// share Req, the request's sequence position.
type span struct {
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the request's root span
	Name   string `json:"name"`
	// Layer is the module charged with the span's self time.
	Layer string `json:"layer"`
	// Start and End are nanoseconds since the traced phase began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Items counts the calls or candidates inside the span, where that
	// means something (cost kernel calls, platforms, considered candidates).
	Items int `json:"items,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// reqTrace collects one request's spans.
type reqTrace struct {
	req      int64
	endpoint string
	origin   time.Time
	spans    []span
}

// start opens a span and returns its ID.
func (t *reqTrace) start(name, layer string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name, Layer: layer,
		Start: int64(time.Since(t.origin))})
	return id
}

func (t *reqTrace) end(id, items int) {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.origin))
	s.Items = items
}

// The layered replay: each request goes through the router, then straight
// to a replica, then into the in-process handler, then into its engine and
// cost kernel. Every call after the first replays the same request one
// layer deeper, so each span's child is the next, separately timed call.
// For attribution a replayed child is placed at the start of its parent
// (its siblings after it), and a span's self time is its duration minus
// the part its children cover: the router hop, the loopback round trip,
// the handler's own work, the engine's own work, the kernel.

// tracedPhase runs the layered replay over the sequence for d.
func tracedPhase(ctx context.Context, routed *client.Client, direct []*client.Client, l *layers,
	reqs []request, want oracle, seq *sequence, d time.Duration) ([]*reqTrace, []record, error) {
	origin := time.Now()
	var (
		mu     sync.Mutex
		traces []*reqTrace
		rec    recorder
		first  error
	)
	drive(ctx, clients, timed(seq, d), func(_ int, it item) {
		r := reqs[it.req]
		t := &reqTrace{req: it.id, endpoint: r.endpoint(), origin: origin}
		root := t.start("client.route", "route", 0)
		out := send(ctx, routed, r)
		t.end(root, 0)
		rec.add(record{req: it.req, latency: time.Duration(t.spans[0].dur()), status: out.status,
			wrong: out.status == http.StatusOK && !want.check(r.Key, out.answer), err: out.err})
		err := replay(ctx, t, root, direct[it.id%int64(len(direct))], l, r)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && first == nil {
			first = fmt.Errorf("traced %s: %w", r.Key, err)
		}
		traces = append(traces, t)
	})
	sort.Slice(traces, func(i, j int) bool { return traces[i].req < traces[j].req })
	return traces, rec.recs, first
}

func replay(ctx context.Context, t *reqTrace, root int, direct *client.Client, l *layers, r request) error {
	id := t.start("client.direct", "client", root)
	out := send(ctx, direct, r)
	t.end(id, 0)
	if out.err != nil {
		return out.err
	}
	hid, status, err := l.handle(t, id, r)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("in-process handler answered %d", status)
	}
	return l.engine(t, hid, r)
}

// selfTimes attributes one request's time to layers: the sum of the self
// times of the layer's spans, in nanoseconds.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]int64{}
	for _, s := range spans {
		var kids []interval
		off := s.Start
		for _, c := range children[s.ID] {
			kids = append(kids, interval{off, off + c.dur()})
			off += c.dur()
		}
		out[s.Layer] += selfTime(interval{s.Start, s.End}, kids)
	}
	return out
}

// attributedLayers are the modules a request's time is attributed to, in
// call order.
var attributedLayers = []string{"route", "client", "service", "core", "arch", "search", "cost"}

// countWindow is how many leading sequence positions the per-call counts
// are averaged over, so a count is the same on every run with one seed.
const countWindow = 100

// layerMetrics derives the span-based per-layer metrics.
func layerMetrics(traces []*reqTrace, m metricSet) {
	durs := map[string][]float64{} // span name → durations in ns
	perItem := map[string][]float64{}
	items := map[string][]float64{} // span name → items, within countWindow
	self := map[string][]float64{}
	var e2e []float64
	for _, t := range traces {
		for _, s := range t.spans {
			durs[s.Name] = append(durs[s.Name], float64(s.dur()))
			if s.Items > 0 {
				perItem[s.Name] = append(perItem[s.Name], float64(s.dur())/float64(s.Items))
			}
			if t.req < countWindow {
				items[s.Name] = append(items[s.Name], float64(s.Items))
			}
		}
		st := selfTimes(t.spans)
		for _, layer := range attributedLayers {
			self[layer] = append(self[layer], float64(st[layer]))
		}
		e2e = append(e2e, float64(t.spans[0].dur()))
	}
	const us, msec = 1e3, 1e6
	m.dist("route.hop_us", self["route"], us)
	m.p50("client.loopback_us_p50", self["client"], us)
	m.p50("service.overhead_us_p50", self["service"], us)
	for _, layer := range []string{"core", "arch", "search", "cost"} {
		m.p50(layer+".self_us_p50", self[layer], us)
	}
	m.p50("trace.e2e_us_p50", e2e, us)
	sum := 0.0
	for _, layer := range attributedLayers {
		sum += median(self[layer]) / us
	}
	if len(e2e) > 0 {
		m.set("unattributed_us_p50", median(e2e)/us-sum, len(e2e))
	}

	m.dist("core.optimize_us", durs["core.Optimize"], us)
	m.dist("core.plan_chain_ms", durs["core.PlanChain"], msec)
	m.mean("core.candidates_per_call", items["core.Optimize"])
	m.dist("search.analytic_us", durs["search.OptimizeAnalytic"], us)
	m.mean("search.analytic_evals_per_op", items["search.OptimizeAnalytic"])
	m.p50("search.auto_us_p50", durs["search.OptimizeTable"], us)
	m.p50("search.table_best_ns", durs["search.CandTable.Best"], 1)
	m.p50("cost.evaluate_ns", perItem["cost.Evaluate"], 1)
	m.p50("cost.batch_ns_per_cand", perItem["cost.EvalBlock"], 1)

	handler := map[string][]float64{}
	for _, t := range traces {
		for _, s := range t.spans {
			if s.Name == "service.handler" {
				handler[t.endpoint] = append(handler[t.endpoint], float64(s.dur()))
			}
		}
	}
	for _, ep := range []string{"optimize", "plan", "evaluate", "search"} {
		m.dist("service."+ep+"_handler_us", handler[ep], us)
	}
}

// writeTrace writes the run's metadata and every span as JSON lines.
func writeTrace(path string, meta map[string]any, traces []*reqTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(meta)
	for _, t := range traces {
		for _, s := range t.spans {
			if err == nil {
				err = enc.Encode(s)
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
