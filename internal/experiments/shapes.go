package experiments

import (
	"fmt"

	"fusecu/internal/model"
	"fusecu/internal/op"
)

// TableIIShapes returns the deduplicated operator shapes of the Table II
// evaluation models plus the Fig. 11 LLaMA2 sequence sweep. Shapes are
// deduplicated by (M, K, L): cost depends only on the dimensions, so one
// shape stands for every operator instance sharing them.
func TableIIShapes() ([]op.MatMul, error) {
	configs := model.TableII()
	for _, s := range model.Fig11SeqLengths() {
		configs = append(configs, model.LLaMA2WithSeq(s))
	}
	seen := map[[3]int]bool{}
	var out []op.MatMul
	for _, cfg := range configs {
		w, err := cfg.Build()
		if err != nil {
			return nil, fmt.Errorf("experiments: build %s: %w", cfg.Name, err)
		}
		for _, wc := range w.Chains {
			for _, mm := range wc.Chain.Ops {
				key := [3]int{mm.M, mm.K, mm.L}
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, mm)
			}
		}
	}
	return out, nil
}

// ServeLoadOps returns the serve-load benchmark's operator shapes: small
// enough that a wave of ~100 requests finishes quickly on one core, large
// enough that requests overlap, and varied enough to cover several tiling
// regimes per buffer.
func ServeLoadOps() []op.MatMul {
	return []op.MatMul{
		{Name: "bench0", M: 32, K: 24, L: 28},
		{Name: "bench1", M: 28, K: 32, L: 24},
		{Name: "bench2", M: 36, K: 20, L: 24},
		{Name: "bench3", M: 24, K: 28, L: 32},
		{Name: "bench4", M: 40, K: 16, L: 24},
		{Name: "bench5", M: 20, K: 36, L: 28},
		{Name: "bench6", M: 24, K: 24, L: 36},
		{Name: "bench7", M: 36, K: 28, L: 20},
		{Name: "bench8", M: 28, K: 20, L: 36},
	}
}
