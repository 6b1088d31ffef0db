package arch

import (
	"testing"

	"fusecu/internal/model"
)

// BenchmarkEvaluateWorkload is the /v1/evaluate engine: the LLaMA2 workload
// (Table II) on every platform of All().
func BenchmarkEvaluateWorkload(b *testing.B) {
	cfg, err := model.ByName("LLaMA2")
	if err != nil {
		b.Fatal(err)
	}
	w, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	ps := All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			if _, err := p.EvaluateWorkload(w); err != nil {
				b.Fatal(err)
			}
		}
	}
}
