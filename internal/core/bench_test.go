package core_test

import (
	"testing"

	"fusecu/internal/core"
	"fusecu/internal/experiments"
	"fusecu/internal/op"
)

// The LLaMA2 FFN at the longest Fig. 11 sequence (batch 16 × 16384 tokens):
// the largest extents the principle optimizer serves, where a linear P1
// sweep would price up to 262,144 tiles per candidate.
var (
	llmFC1 = op.MatMul{Name: "fc1", M: 262144, K: 4096, L: 11008}
	llmFC2 = op.MatMul{Name: "fc2", M: 262144, K: 11008, L: 4096}
)

// BenchmarkOptimizeLLM is one core.Optimize per Fig. 9 buffer (32 Ki–32 Mi
// elements) on the LLaMA2 fc1 shape.
func BenchmarkOptimizeLLM(b *testing.B) {
	buffers := experiments.Fig9Buffers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bs := range buffers {
			if _, err := core.Optimize(llmFC1, bs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPlanChainLLM is one core.PlanChain per Fig. 9 buffer on the
// LLaMA2 FFN chain (fc1 → fc2).
func BenchmarkPlanChainLLM(b *testing.B) {
	chain, err := op.NewChain("ffn", llmFC1, llmFC2)
	if err != nil {
		b.Fatal(err)
	}
	buffers := experiments.Fig9Buffers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bs := range buffers {
			if _, err := core.PlanChain(chain, bs); err != nil {
				b.Fatal(err)
			}
		}
	}
}
