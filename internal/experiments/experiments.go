// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V) from this repository's models: the Fig. 9
// principle-vs-search validation, the Fig. 10 cross-platform memory-access
// and utilization comparison, the Fig. 11 LLaMA2 sequence-length sweep, the
// Fig. 12 area breakdown, the three tables, and the headline averages.
// Paper-vs-measured values are recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"

	"fusecu/internal/arch"
	"fusecu/internal/area"
	"fusecu/internal/core"
	"fusecu/internal/model"
	"fusecu/internal/op"
	"fusecu/internal/report"
	"fusecu/internal/search"
)

// PlatformNames is the paper's comparison order.
var PlatformNames = []string{"TPUv4i", "Gemmini", "Planaria", "UnfCU", "FuseCU"}

// BaselineNames are the platforms the headline averages compare against.
var BaselineNames = []string{"TPUv4i", "Gemmini", "Planaria"}

// ---------------------------------------------------------------- Fig. 9 --

// Fig9Point is one buffer size of the validation sweep.
type Fig9Point struct {
	BufferElems int64
	// PrincipleMA is the one-shot analytical optimum; SearchMA is what the
	// DAT-style searcher found; Ideal is the unbounded-buffer lower bound.
	PrincipleMA, SearchMA, Ideal int64
	// SearchEvals is the searcher's candidate-visit count, the paper's
	// search-cost metric (the principles use a constant-size candidate
	// set): for DAT, the coarse-lattice candidates its lattice stage visits
	// plus the GA's cost-model invocations.
	SearchEvals int64
}

// Fig9Result is the sweep for one operator.
type Fig9Result struct {
	Op     op.MatMul
	Points []Fig9Point
}

// Fig9Ops returns the BERT-class matrix multiplications the validation runs
// on: a projection, an FFN layer, and the two attention operators.
func Fig9Ops() []op.MatMul {
	return []op.MatMul{
		{Name: "proj", M: 1024, K: 768, L: 768},
		{Name: "ffn", M: 1024, K: 768, L: 3072},
		{Name: "QKt", M: 1024, K: 64, L: 1024},
		{Name: "SV", M: 1024, K: 1024, L: 64},
	}
}

// Fig9Buffers returns the paper's 32 KiB – 32 MiB buffer sweep (elements).
func Fig9Buffers() []int64 {
	var out []int64
	for b := int64(32 << 10); b <= 32<<20; b *= 2 {
		out = append(out, b)
	}
	return out
}

// fig9Point computes one (operator, buffer) point of the validation sweep:
// the principle optimum, the DAT-style search result, and the ideal lower
// bound. The search stage honours ctx, so canceling it abandons the point
// mid-search.
func fig9Point(ctx context.Context, mm op.MatMul, bs, seed int64) (Fig9Point, error) {
	pr, err := core.Optimize(mm, bs)
	if err != nil {
		return Fig9Point{}, fmt.Errorf("experiments: fig9 %v BS=%d: %w", mm, bs, err)
	}
	sr, err := search.OptimizeCtx(ctx, mm, bs, search.GeneticOptions{Seed: seed})
	if err != nil {
		return Fig9Point{}, fmt.Errorf("experiments: fig9 search %v BS=%d: %w", mm, bs, err)
	}
	return Fig9Point{
		BufferElems: bs,
		PrincipleMA: pr.Access.Total,
		SearchMA:    sr.Access.Total,
		Ideal:       mm.IdealMA(),
		SearchEvals: sr.Evaluations,
	}, nil
}

// Fig9 validates the principles against the search baseline (DAT:
// search.Optimize, the coarse lattice's exact optimum polished by the GA)
// across the buffer sweep. seed seeds the GA.
func Fig9(ops []op.MatMul, buffers []int64, seed int64) ([]Fig9Result, error) {
	return Fig9Ctx(context.Background(), ops, buffers, seed)
}

// Fig9Ctx is Fig9 with cooperative cancellation: when ctx is canceled the
// in-flight point abandons its search at the engine's next poll and the
// sweep returns the error instead of a partial result set.
func Fig9Ctx(ctx context.Context, ops []op.MatMul, buffers []int64, seed int64) ([]Fig9Result, error) {
	var results []Fig9Result
	for _, mm := range ops {
		r := Fig9Result{Op: mm}
		for _, bs := range buffers {
			p, err := fig9Point(ctx, mm, bs, seed)
			if err != nil {
				return nil, err
			}
			r.Points = append(r.Points, p)
		}
		results = append(results, r)
	}
	return results, nil
}

// RenderFig9 renders each operator's sweep as a figure with the principle
// line and the search points, both normalized to the unfused ideal.
func RenderFig9(results []Fig9Result) []*report.Figure {
	var figs []*report.Figure
	for _, r := range results {
		f := report.NewFigure(
			fmt.Sprintf("Fig. 9 — normalized memory access vs DAT-style search, %v", r.Op),
			"buffer KiB", "MA / ideal")
		pl := f.AddSeries("principles (line)")
		se := f.AddSeries("search (points)")
		for _, p := range r.Points {
			x := float64(p.BufferElems) / 1024
			pl.Add(x, float64(p.PrincipleMA)/float64(p.Ideal))
			se.Add(x, float64(p.SearchMA)/float64(p.Ideal))
		}
		figs = append(figs, f)
	}
	return figs
}

// --------------------------------------------------------------- Fig. 10 --

// Fig10Row is one model's cross-platform comparison.
type Fig10Row struct {
	Model string
	// NormMA is memory access normalized to TPUv4i (the bar chart).
	NormMA map[string]float64
	// Util is performance normalized to peak FLOPs (the line chart).
	Util map[string]float64
	// Speedup is TPUv4i cycles over the platform's cycles.
	Speedup map[string]float64
	// Raw results per platform.
	Raw map[string]arch.Result
}

// Fig10 evaluates the given models on all five platforms.
func Fig10(models []model.Config) ([]Fig10Row, error) {
	platforms := arch.All()
	var rows []Fig10Row
	for _, cfg := range models {
		w, err := cfg.Build()
		if err != nil {
			return nil, err
		}
		row := Fig10Row{
			Model:   cfg.Name,
			NormMA:  map[string]float64{},
			Util:    map[string]float64{},
			Speedup: map[string]float64{},
			Raw:     map[string]arch.Result{},
		}
		for _, p := range platforms {
			r, err := p.EvaluateWorkload(w)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig10 %s on %s: %w", cfg.Name, p.Name, err)
			}
			row.Raw[p.Name] = r
		}
		base := row.Raw["TPUv4i"]
		for name, r := range row.Raw {
			row.NormMA[name] = float64(r.MA) / float64(base.MA)
			row.Util[name] = r.Utilization
			row.Speedup[name] = float64(base.Cycles) / float64(r.Cycles)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig10 renders the MA bars and utilization lines.
func RenderFig10(rows []Fig10Row) (*report.Table, *report.Table) {
	ma := report.NewTable("Fig. 10 (bars) — memory access normalized to TPUv4i",
		append([]string{"model"}, PlatformNames...)...)
	util := report.NewTable("Fig. 10 (lines) — performance normalized to peak FLOPs",
		append([]string{"model"}, PlatformNames...)...)
	for _, r := range rows {
		maRow := []interface{}{r.Model}
		utRow := []interface{}{r.Model}
		for _, p := range PlatformNames {
			maRow = append(maRow, r.NormMA[p])
			utRow = append(utRow, r.Util[p])
		}
		ma.AddRow(maRow...)
		util.AddRow(utRow...)
	}
	return ma, util
}

// -------------------------------------------------------------- Headline --

// Headline aggregates the paper's abstract numbers: average MA saving and
// speedup of FuseCU over each baseline.
type Headline struct {
	// SavingPct[name] is the mean percentage of memory access FuseCU
	// eliminates versus the named platform.
	SavingPct map[string]float64
	// Speedup[name] is the mean cycle-count ratio versus FuseCU.
	Speedup map[string]float64
	// UnfCUSavingPct mirrors the paper's UnfCU ablation.
	UnfCUSavingPct map[string]float64
}

// ComputeHeadline averages Fig. 10 rows into the headline claims.
func ComputeHeadline(rows []Fig10Row) Headline {
	h := Headline{
		SavingPct:      map[string]float64{},
		Speedup:        map[string]float64{},
		UnfCUSavingPct: map[string]float64{},
	}
	n := float64(len(rows))
	for _, row := range rows {
		for _, b := range BaselineNames {
			h.SavingPct[b] += (1 - float64(row.Raw["FuseCU"].MA)/float64(row.Raw[b].MA)) * 100 / n
			h.Speedup[b] += float64(row.Raw[b].Cycles) / float64(row.Raw["FuseCU"].Cycles) / n
			h.UnfCUSavingPct[b] += (1 - float64(row.Raw["UnfCU"].MA)/float64(row.Raw[b].MA)) * 100 / n
		}
	}
	return h
}

// RenderHeadline renders the abstract's comparison with the paper values
// alongside.
func RenderHeadline(h Headline) *report.Table {
	t := report.NewTable("Headline — FuseCU vs baselines (paper: 63.6/62.4/38.7 % MA saving; 1.33/1.25/1.14× speedup)",
		"baseline", "MA saving %", "speedup ×", "UnfCU saving %")
	for _, b := range BaselineNames {
		t.AddRow(b, h.SavingPct[b], h.Speedup[b], h.UnfCUSavingPct[b])
	}
	return t
}

// --------------------------------------------------------------- Fig. 11 --

// Fig11Row is one sequence length of the LLaMA2 sweep.
type Fig11Row struct {
	SeqLen int
	NormMA map[string]float64
	Util   map[string]float64
}

// Fig11 sweeps LLaMA2 sequence lengths on all platforms.
func Fig11(seqs []int) ([]Fig11Row, error) {
	platforms := arch.All()
	var rows []Fig11Row
	for _, s := range seqs {
		w, err := model.LLaMA2WithSeq(s).Build()
		if err != nil {
			return nil, err
		}
		row := Fig11Row{SeqLen: s, NormMA: map[string]float64{}, Util: map[string]float64{}}
		raw := map[string]arch.Result{}
		for _, p := range platforms {
			r, err := p.EvaluateWorkload(w)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig11 seq=%d on %s: %w", s, p.Name, err)
			}
			raw[p.Name] = r
		}
		for name, r := range raw {
			row.NormMA[name] = float64(r.MA) / float64(raw["TPUv4i"].MA)
			row.Util[name] = r.Utilization
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig11 renders the sweep.
func RenderFig11(rows []Fig11Row) *report.Figure {
	f := report.NewFigure("Fig. 11 — LLaMA2 vs sequence length (MA normalized to TPUv4i)",
		"seq", "normalized MA")
	series := map[string]*report.Series{}
	for _, p := range PlatformNames {
		series[p] = f.AddSeries(p)
	}
	for _, r := range rows {
		for _, p := range PlatformNames {
			series[p].Add(float64(r.SeqLen), r.NormMA[p])
		}
	}
	return f
}

// --------------------------------------------------------------- Fig. 12 --

// Fig12 returns the area breakdowns.
func Fig12() (fuse, tpu, planaria area.Breakdown) {
	cfg := area.DefaultConfig()
	return area.FuseCU(cfg), area.TPUv4i(cfg), area.Planaria(cfg)
}

// RenderFig12 renders the FuseCU breakdown and the overhead summary.
func RenderFig12() (*report.Table, *report.Table) {
	fuse, _, planaria := Fig12()
	cfg := area.DefaultConfig()

	bd := report.NewTable("Fig. 12 — FuseCU area breakdown at 28 nm", "component", "area mm²", "share %", "overhead")
	for _, c := range fuse.Components {
		share, err := fuse.Share(c.Name)
		if err != nil {
			continue // component list and breakdown disagree; skip the row
		}
		bd.AddRow(c.Name, c.Area()/1e6, share, c.Overhead)
	}

	ov := report.NewTable("Fig. 12 — overheads (paper: FuseCU 12.0 %, interconnect+control < 0.1 %, Planaria 12.6 %)",
		"metric", "value %")
	ov.AddRow("FuseCU overhead vs TPUv4i", fuse.OverheadPct())
	ov.AddRow("FuseCU interconnect+control share", area.InterconnectPct(cfg))
	ov.AddRow("Planaria interconnect overhead", planaria.OverheadPct())
	return bd, ov
}

// ---------------------------------------------------------------- Tables --

// Table1 renders the optimizer-feature summary (Table I).
func Table1() *report.Table {
	t := report.NewTable("Table I — dataflow optimizer features",
		"optimizer", "full tiling+scheduling space", "optimization scheme", "mapping scheme", "fusion medium")
	t.AddRow("intra-op DSE (CoSA/GAMMA/…)", "no", "searching", "searching, fixed patterns", "none")
	t.AddRow("Chimera", "no", "searching", "replaceable micro kernels", "memory")
	t.AddRow("SET", "no", "searching", "not discussed", "memory")
	t.AddRow("FLAT", "no", "searching", "not discussed", "memory")
	t.AddRow("DAT", "yes", "searching", "not discussed", "memory")
	t.AddRow("this work", "yes", "principle-based", "principle-based", "compute unit")
	return t
}

// Table2 renders the evaluation model parameters (Table II).
func Table2() *report.Table {
	t := report.NewTable("Table II — transformer model parameters (batch 16)",
		"model", "heads", "seq length", "hidden size", "FFN dim")
	for _, c := range model.TableII() {
		t.AddRow(c.Name, c.Heads, c.SeqLen, c.Hidden, c.FFN())
	}
	return t
}

// Table3 renders the platform attributes (Table III).
func Table3() *report.Table {
	t := report.NewTable("Table III — spatial architecture attributes",
		"platform", "stationary flex.", "tiling flex.", "tensor fusion")
	for _, p := range arch.All() {
		stat := "×"
		if p.StationaryFlex {
			stat = "✓"
		}
		fus := "×"
		if p.SupportsFusion {
			fus = "✓"
		}
		t.AddRow(p.Name, stat, p.TilingFlex.String(), fus)
	}
	return t
}
