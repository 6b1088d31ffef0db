package experiments

import (
	"math"
	"strings"
	"testing"

	"fusecu/internal/model"
	"fusecu/internal/op"
)

// smallModels keeps the cross-platform tests fast.
func smallModels() []model.Config {
	return []model.Config{
		{Name: "mini-bert", Heads: 8, SeqLen: 512, Hidden: 512, Batch: 4},
		{Name: "mini-gpt", Heads: 8, SeqLen: 1024, Hidden: 512, Batch: 4},
	}
}

func TestFig9PrincipleNeverWorseThanSearch(t *testing.T) {
	ops := []op.MatMul{
		{Name: "proj", M: 256, K: 192, L: 192},
		{Name: "QKt", M: 256, K: 32, L: 256},
	}
	buffers := []int64{4 << 10, 16 << 10, 64 << 10}
	results, err := Fig9(ops, buffers, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ops) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if len(r.Points) != len(buffers) {
			t.Fatalf("%v: %d points", r.Op, len(r.Points))
		}
		prev := int64(1) << 62
		for _, p := range r.Points {
			// The principles give the lower bound: search can match but
			// never beat them (Fig. 9's "in some cases our dataflow
			// outperforms DAT").
			if p.SearchMA < p.PrincipleMA {
				t.Errorf("%v BS=%d: search %d beats principles %d", r.Op, p.BufferElems, p.SearchMA, p.PrincipleMA)
			}
			if p.PrincipleMA < p.Ideal {
				t.Errorf("%v BS=%d: principle MA below ideal", r.Op, p.BufferElems)
			}
			if p.PrincipleMA > prev {
				t.Errorf("%v BS=%d: MA not monotone in buffer size", r.Op, p.BufferElems)
			}
			prev = p.PrincipleMA
			if p.SearchEvals == 0 {
				t.Errorf("%v BS=%d: no search visits recorded", r.Op, p.BufferElems)
			}
		}
		// With the largest buffer the principle reaches the ideal.
		if last := r.Points[len(r.Points)-1]; last.PrincipleMA != last.Ideal {
			t.Errorf("%v: did not converge to ideal (%d vs %d)", r.Op, last.PrincipleMA, last.Ideal)
		}
	}
	figs := RenderFig9(results)
	if len(figs) != len(ops) {
		t.Fatal("render count mismatch")
	}
	if !strings.Contains(figs[0].String(), "principles") {
		t.Fatal("rendered figure missing series")
	}

	// The Table-II and Fig. 11 LLaMA2 shapes: DAT keeps the better of the
	// coarse lattice's optimum and the GA, so the principles never lose to
	// the coarse search there either.
	shapes, err := TableIIShapes()
	if err != nil {
		t.Fatal(err)
	}
	results, err = Fig9(shapes, []int64{16 << 10, 256 << 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		for _, p := range r.Points {
			if p.SearchMA < p.PrincipleMA {
				t.Errorf("%v BS=%d: search %d beats principles %d", r.Op, p.BufferElems, p.SearchMA, p.PrincipleMA)
			}
		}
	}
}

func TestFig9DefaultsArePaperSweep(t *testing.T) {
	bufs := Fig9Buffers()
	if bufs[0] != 32<<10 || bufs[len(bufs)-1] != 32<<20 {
		t.Fatalf("sweep = %v", bufs)
	}
	if len(Fig9Ops()) < 4 {
		t.Fatal("too few validation operators")
	}
}

// TestFig9DATAboveLineAtSmallBuffers pins the paper's Fig. 9 result on its
// own sweep: DAT (coarse lattice + GA, seed 1) never beats the principle
// line and lands strictly above it at exactly three small-buffer points,
// while the exact analytic engine sits on the line at all 44.
func TestFig9DATAboveLineAtSmallBuffers(t *testing.T) {
	ops, buffers := Fig9Ops(), Fig9Buffers()
	dat, err := Fig9(ops, buffers, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Each point above the line, with its search and principle MA as
	// multiples of the ideal MA.
	type above struct {
		op         string
		buffer     int64
		search, pr float64
	}
	want := []above{
		{"proj", 32 << 10, 3.727, 3.545},
		{"ffn", 32 << 10, 5.125, 4.500},
		{"ffn", 64 << 10, 3.625, 3.500},
	}
	var got []above
	for _, r := range dat {
		for _, p := range r.Points {
			if p.SearchMA < p.PrincipleMA {
				t.Errorf("%v BS=%d: search %d beats principles %d", r.Op, p.BufferElems, p.SearchMA, p.PrincipleMA)
			}
			if p.SearchMA > p.PrincipleMA {
				got = append(got, above{r.Op.Name, p.BufferElems,
					float64(p.SearchMA) / float64(p.Ideal), float64(p.PrincipleMA) / float64(p.Ideal)})
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("search above the line at %+v, want %+v", got, want)
	}
	for i, w := range want {
		g := got[i]
		if g.op != w.op || g.buffer != w.buffer ||
			math.Abs(g.search-w.search) > 5e-4 || math.Abs(g.pr-w.pr) > 5e-4 {
			t.Errorf("point %d above the line: %+v, want %+v", i, g, w)
		}
	}

	ana, err := Fig9Analytic(ops, buffers)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range ana {
		for _, p := range r.Points {
			n++
			if p.SearchMA != p.PrincipleMA {
				t.Errorf("%v BS=%d: analytic %d off the principle line %d", r.Op, p.BufferElems, p.SearchMA, p.PrincipleMA)
			}
		}
	}
	if n != 44 {
		t.Fatalf("analytic sweep has %d points, want 44", n)
	}
}

// TestFig9SearchPinned pins every DAT point of the paper's Fig. 9 sweep
// (seed 1): the search MA and the search-cost count (coarse-lattice visits
// plus GA evaluations) at each of the 44 points, which sum to 194,052,096
// and 801,638. Moving either changes the figure or its search-cost claim.
func TestFig9SearchPinned(t *testing.T) {
	type point struct{ ma, evals int64 }
	want := map[string][]point{
		"proj": {{8060928, 20026}, {6094848, 22288}, {4521984, 24280}, {3538944, 25912}, {2752512, 27058}, {2162688, 27652}, {2162688, 27724}, {2162688, 27730}, {2162688, 27730}, {2162688, 27730}, {2162688, 27730}},
		"ffn":  {{32243712, 20752}, {22806528, 23458}, {16515072, 25990}, {11796480, 28258}, {8650752, 30136}, {6291456, 31546}, {6291456, 32368}, {6291456, 32716}, {6291456, 32746}, {6291456, 32746}, {6291456, 32746}},
		"QKt":  {{1310720, 7876}, {1245184, 8260}, {1179648, 8554}, {1179648, 8734}, {1179648, 8860}, {1179648, 8944}, {1179648, 8986}, {1179648, 8986}, {1179648, 8986}, {1179648, 8986}, {1179648, 8986}},
		"SV":   {{1310720, 7876}, {1245184, 8260}, {1179648, 8554}, {1179648, 8734}, {1179648, 8860}, {1179648, 8944}, {1179648, 8986}, {1179648, 8986}, {1179648, 8986}, {1179648, 8986}, {1179648, 8986}},
	}
	results, err := Fig9(Fig9Ops(), Fig9Buffers(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var sumMA, sumEvals int64
	for _, r := range results {
		w := want[r.Op.Name]
		if len(r.Points) != len(w) {
			t.Fatalf("%v: %d points, want %d", r.Op, len(r.Points), len(w))
		}
		for i, p := range r.Points {
			n++
			sumMA += p.SearchMA
			sumEvals += p.SearchEvals
			if got := (point{p.SearchMA, p.SearchEvals}); got != w[i] {
				t.Errorf("%v BS=%d: search MA %d after %d visits, want %d after %d",
					r.Op, p.BufferElems, got.ma, got.evals, w[i].ma, w[i].evals)
			}
		}
	}
	if n != 44 || sumMA != 194_052_096 || sumEvals != 801_638 {
		t.Errorf("%d points summing to MA %d and %d visits, want 44, 194052096 and 801638", n, sumMA, sumEvals)
	}
}

func TestFig10OrderingAndHeadline(t *testing.T) {
	rows, err := Fig10(smallModels())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NormMA["TPUv4i"] != 1.0 {
			t.Errorf("%s: TPUv4i not normalized to 1", r.Model)
		}
		if !(r.NormMA["FuseCU"] < r.NormMA["TPUv4i"]) {
			t.Errorf("%s: FuseCU does not reduce MA", r.Model)
		}
		if !(r.NormMA["FuseCU"] <= r.NormMA["UnfCU"]) {
			t.Errorf("%s: fusion made MA worse", r.Model)
		}
		for _, p := range PlatformNames {
			if r.Util[p] <= 0 || r.Util[p] > 1 {
				t.Errorf("%s %s: utilization %f", r.Model, p, r.Util[p])
			}
			if r.Speedup[p] <= 0 {
				t.Errorf("%s %s: speedup %f", r.Model, p, r.Speedup[p])
			}
		}
		if r.Speedup["FuseCU"] < 1 {
			t.Errorf("%s: FuseCU slower than TPUv4i", r.Model)
		}
	}
	h := ComputeHeadline(rows)
	for _, b := range BaselineNames {
		if h.SavingPct[b] <= 0 || h.SavingPct[b] >= 100 {
			t.Errorf("saving vs %s = %f", b, h.SavingPct[b])
		}
		if h.Speedup[b] < 1 {
			t.Errorf("speedup vs %s = %f", b, h.Speedup[b])
		}
		if h.UnfCUSavingPct[b] > h.SavingPct[b] {
			t.Errorf("UnfCU saving exceeds FuseCU saving vs %s", b)
		}
	}
	ma, util := RenderFig10(rows)
	if ma.Rows() != 2 || util.Rows() != 2 {
		t.Fatal("rendered tables wrong size")
	}
	if RenderHeadline(h).Rows() != 3 {
		t.Fatal("headline table wrong size")
	}
}

func TestFig11SavingGrowsWithSeq(t *testing.T) {
	rows, err := Fig11([]int{256, 512, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	prev := 1.0
	for _, r := range rows {
		fc := r.NormMA["FuseCU"]
		if fc >= 1 {
			t.Errorf("seq %d: FuseCU normalized MA %f not below TPUv4i", r.SeqLen, fc)
		}
		// Fig. 11: greater memory-access reduction for longer sequences.
		if fc >= prev {
			t.Errorf("seq %d: normalized MA %f did not fall (prev %f)", r.SeqLen, fc, prev)
		}
		prev = fc
	}
	if !strings.Contains(RenderFig11(rows).String(), "FuseCU") {
		t.Fatal("render missing series")
	}
}

func TestFig12Claims(t *testing.T) {
	fuse, tpu, planaria := Fig12()
	if fuse.Total() <= tpu.Total() {
		t.Fatal("FuseCU not larger than baseline")
	}
	if pct := fuse.OverheadPct(); pct < 10 || pct > 14 {
		t.Fatalf("FuseCU overhead %f", pct)
	}
	if pct := planaria.OverheadPct(); pct < 10 || pct > 15 {
		t.Fatalf("Planaria overhead %f", pct)
	}
	bd, ov := RenderFig12()
	if bd.Rows() == 0 || ov.Rows() != 3 {
		t.Fatal("fig12 rendering wrong")
	}
	if !strings.Contains(bd.String(), "XS PE logic") {
		t.Fatal("breakdown missing XS PE logic")
	}
}

func TestTables(t *testing.T) {
	t1, t2, t3 := Table1(), Table2(), Table3()
	if t1.Rows() != 6 {
		t.Fatalf("Table I rows = %d", t1.Rows())
	}
	if t2.Rows() != 7 {
		t.Fatalf("Table II rows = %d", t2.Rows())
	}
	if t3.Rows() != 5 {
		t.Fatalf("Table III rows = %d", t3.Rows())
	}
	if !strings.Contains(t1.String(), "principle-based") {
		t.Fatal("Table I missing this work's row")
	}
	if !strings.Contains(t2.String(), "LLaMA2") {
		t.Fatal("Table II missing LLaMA2")
	}
	if !strings.Contains(t3.String(), "FuseCU") {
		t.Fatal("Table III missing FuseCU")
	}
}

// The full-scale headline run is the paper's abstract claim; keep it under
// -short because it evaluates all seven models on five platforms.
func TestHeadlineFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table II evaluation is slow")
	}
	rows, err := Fig10(model.TableII())
	if err != nil {
		t.Fatal(err)
	}
	h := ComputeHeadline(rows)
	// Shape checks against the paper's 63.6/62.4/38.7 and 1.33/1.25/1.14:
	// same ordering, same ballpark.
	if h.SavingPct["TPUv4i"] < 40 || h.SavingPct["TPUv4i"] > 80 {
		t.Errorf("saving vs TPUv4i = %.1f%%, paper 63.6%%", h.SavingPct["TPUv4i"])
	}
	if h.SavingPct["Gemmini"] < 40 || h.SavingPct["Gemmini"] > 80 {
		t.Errorf("saving vs Gemmini = %.1f%%, paper 62.4%%", h.SavingPct["Gemmini"])
	}
	if h.SavingPct["Planaria"] < 25 || h.SavingPct["Planaria"] > 60 {
		t.Errorf("saving vs Planaria = %.1f%%, paper 38.7%%", h.SavingPct["Planaria"])
	}
	if !(h.SavingPct["Planaria"] < h.SavingPct["Gemmini"] && h.SavingPct["Gemmini"] <= h.SavingPct["TPUv4i"]) {
		t.Errorf("saving ordering broken: %+v", h.SavingPct)
	}
	if !(h.Speedup["TPUv4i"] >= h.Speedup["Gemmini"] && h.Speedup["Gemmini"] >= h.Speedup["Planaria"]) {
		t.Errorf("speedup ordering broken: %+v", h.Speedup)
	}
	if h.Speedup["TPUv4i"] < 1.05 {
		t.Errorf("speedup vs TPUv4i = %.2f, paper 1.33", h.Speedup["TPUv4i"])
	}
}

func TestRenderersEmitCSV(t *testing.T) {
	rows, err := Fig10(smallModels())
	if err != nil {
		t.Fatal(err)
	}
	ma, util := RenderFig10(rows)
	for _, tb := range []interface{ CSV() string }{ma, util, Table1(), Table2(), Table3(), RenderHeadline(ComputeHeadline(rows))} {
		csv := tb.CSV()
		if len(csv) == 0 || !strings.Contains(csv, ",") {
			t.Fatalf("degenerate CSV: %q", csv)
		}
	}
}
