package fusion

import (
	"fmt"
	"testing"

	"fusecu/internal/op"
)

// BenchmarkTileOSISLLM is one tile-OS/IS construction per Fig. 9 buffer
// (32 Ki–32 Mi elements) on the LLaMA2 FFN pair fc1 ⨝ fc2 at the longest
// Fig. 11 sequence (batch 16 × 16384 tokens), unaligned and aligned to
// FuseCU's 128-wide CU (arch.DefaultCUDim; internal/arch imports this
// package, so the width is spelled out here).
func BenchmarkTileOSISLLM(b *testing.B) {
	p, err := NewPair(
		op.MatMul{Name: "fc1", M: 262144, K: 4096, L: 11008},
		op.MatMul{Name: "fc2", M: 262144, K: 11008, L: 4096})
	if err != nil {
		b.Fatal(err)
	}
	for _, align := range []int{1, 128} {
		b.Run(fmt.Sprintf("align=%d", align), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for bs := int64(32 << 10); bs <= 32<<20; bs *= 2 {
					if _, ok := ConstructTileOSISAligned(p, bs, align); !ok {
						b.Fatalf("BS=%d align %d: no tile-OS/IS dataflow", bs, align)
					}
				}
			}
		})
	}
}
