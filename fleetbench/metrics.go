package main

import (
	"fmt"
	"io"
	"math"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, as a user of the fleet sees it.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"server_cpu_ms_per_req", "ms"},
	{"server_rss_mb", "MB"},
	{"setup_s", "s"},
	// ok_frac and correct_frac are 1 − failed_frac and the share of 200s
	// that agree with the oracle: the failure and wrong-answer counts as
	// metrics that are never zero, so a share of their median is defined.
	{"ok_frac", "ratio"},
	{"correct_frac", "ratio"},
}

// perLayer are the traced run's metrics, named <module>.<metric>.
var perLayer = []metricDef{
	{"cost.evaluate_ns", "ns"},
	{"cost.batch_ns_per_cand", "ns"},
	{"cost.self_us_p50", "us"},
	{"core.optimize_us_p50", "us"},
	{"core.optimize_us_p99", "us"},
	{"core.plan_chain_ms_p50", "ms"},
	{"core.plan_chain_ms_p99", "ms"},
	{"core.candidates_per_call", "count"},
	{"core.self_us_p50", "us"},
	{"arch.evaluate_workload_ms_p50", "ms"},
	{"arch.self_us_p50", "us"},
	{"search.analytic_us_p50", "us"},
	{"search.analytic_us_p99", "us"},
	{"search.analytic_evals_per_op", "count"},
	{"search.auto_us_p50", "us"},
	{"search.table_best_ns", "ns"},
	{"search.table_build_ms_sum", "ms"},
	{"search.table_candidates_sum", "count"},
	{"search.self_us_p50", "us"},
	{"service.optimize_handler_us_p50", "us"},
	{"service.optimize_handler_us_p99", "us"},
	{"service.plan_handler_us_p50", "us"},
	{"service.plan_handler_us_p99", "us"},
	{"service.evaluate_handler_us_p50", "us"},
	{"service.evaluate_handler_us_p99", "us"},
	{"service.search_handler_us_p50", "us"},
	{"service.search_handler_us_p99", "us"},
	{"service.overhead_us_p50", "us"},
	{"service.table_hits", "count"},
	{"service.table_builds", "count"},
	{"service.table_hit_ratio", "ratio"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.shed_429", "count"},
	{"service.degraded", "count"},
	{"service.panics_recovered", "count"},
	{"client.loopback_us_p50", "us"},
	{"client.retries", "count"},
	{"client.transport_errors", "count"},
	{"route.hop_us_p50", "us"},
	{"route.hop_us_p99", "us"},
	{"route.failovers", "count"},
	{"route.hedges", "count"},
	{"route.upstream_errors", "count"},
	{"route.replica_skew", "ratio"},
	{"unattributed_us_p50", "us"},
	{"trace.e2e_us_p50", "us"},
	{"trace.overhead_frac", "ratio"},
}

// measured is one metric's value with its sample count and a note (the
// percentile actually reported, a ratio's base, why it is absent).
type measured struct {
	value  float64
	n      int
	note   string
	absent bool
}

// metricSet collects the metrics of one run.
type metricSet map[string]*measured

func (m metricSet) set(name string, v float64, n int) { m[name] = &measured{value: v, n: n} }

func (m metricSet) setNote(name string, v float64, n int, note string) {
	m[name] = &measured{value: v, n: n, note: note}
}

func (m metricSet) absent(name, why string) { m[name] = &measured{absent: true, note: why} }

// p50 sets name to the median of xs divided by scale.
func (m metricSet) p50(name string, xs []float64, scale float64) {
	if len(xs) == 0 {
		m.absent(name, "no samples on this workload")
		return
	}
	m.set(name, median(xs)/scale, len(xs))
}

// dist sets prefix_p50 and prefix_p99; the latter is the highest
// percentile up to the 99th that the sample supports.
func (m metricSet) dist(prefix string, xs []float64, scale float64) {
	m.p50(prefix+"_p50", xs, scale)
	if len(xs) == 0 {
		m.absent(prefix+"_p99", "no samples on this workload")
		return
	}
	t := tailPercentile(xs, 0.99)
	m.setNote(prefix+"_p99", t.Value/scale, t.N, fmt.Sprintf("p%.4g", 100*t.Q))
}

// mean sets name to the mean of xs.
func (m metricSet) mean(name string, xs []float64) {
	if len(xs) == 0 {
		m.absent(name, "no samples on this workload")
		return
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	m.set(name, s/float64(len(xs)), len(xs))
}

// ratio sets name to num/den, noting the base; a zero base is absent.
func (m metricSet) ratio(name string, num, den float64) {
	if den == 0 {
		m.absent(name, "zero base")
		return
	}
	m.setNote(name, num/den, int(den), fmt.Sprintf("%g of %g", num, den))
}

// print writes one line per metric of defs: name, value, unit, sample
// count and note.
func (m metricSet) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		v := m[d.name]
		switch {
		case v == nil:
			fmt.Fprintf(w, "%-34s %14s %-6s not measured\n", d.name, "-", d.unit)
		case v.absent:
			fmt.Fprintf(w, "%-34s %14s %-6s absent: %s\n", d.name, "-", d.unit, v.note)
		default:
			fmt.Fprintf(w, "%-34s %14.6g %-6s n=%d %s\n", d.name, v.value, d.unit, v.n, v.note)
		}
	}
}

// jsonMetrics renders defs for the result line; an absent or unmeasured
// metric reads 0.
func (m metricSet) jsonMetrics(defs []metricDef) map[string]any {
	out := map[string]any{}
	for _, d := range defs {
		v := 0.0
		if x := m[d.name]; x != nil && !x.absent && !math.IsNaN(x.value) && !math.IsInf(x.value, 0) {
			v = x.value
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	return out
}
