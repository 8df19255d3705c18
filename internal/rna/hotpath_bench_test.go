package rna

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/quant"
)

// hotNeuron builds the canonical hot-path fixture: one functional RNA with
// 16×16 codebooks, a sigmoid activation table, and a 64-edge neuron — the
// shape a mid-size dense layer fires millions of times under serving load.
func hotNeuron() (*FuncRNA, []int, []int) {
	rng := rand.New(rand.NewSource(7))
	wcb := randomCodebook(rng, 16, 0.5)
	ucb := randomCodebook(rng, 16, 1.0)
	next := randomCodebook(rng, 16, 1.0)
	table := quant.BuildActTable(nn.Sigmoid{}, 64, -8, 8, quant.NonLinear)
	r := NewFuncRNA(dev(), wcb, ucb, 0.1, table, false, next, 16)
	wi := make([]int, 64)
	ui := make([]int, 64)
	for i := range wi {
		wi[i], ui[i] = rng.Intn(16), rng.Intn(16)
	}
	return r, wi, ui
}

// BenchmarkNeuronFire measures one end-to-end neuron evaluation through the
// zero-config re-entrant API — counting, shift-add expansion, NOR addition,
// NDCAM activation and encoding. This is the innermost unit of work of every
// hardware inference; its allocs/op govern GC pressure at serving scale.
func BenchmarkNeuronFire(b *testing.B) {
	r, wi, ui := hotNeuron()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Eval(wi, ui, 0)
	}
}

// BenchmarkAccumulate measures the weighted-accumulation stage alone —
// counting, touched-bucket shift-add expansion and NOR addition — in a
// worker-owned Scratch, on 16×16 codebooks at the fan-ins of the bulk-conv
// benchmark model's layers: 27 and 72 (3×3 convolutions over 3 and 8
// channels, which touch a small share of the 256 buckets) and 2048 (the
// dense fc1 layer, which touches nearly all of them).
func BenchmarkAccumulate(b *testing.B) {
	r, _, _ := hotNeuron()
	for _, fanin := range []int{27, 72, 2048} {
		b.Run(fmt.Sprintf("fanin=%d", fanin), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(fanin)))
			wi := make([]int, fanin)
			ui := make([]int, fanin)
			for i := range wi {
				wi[i], ui[i] = rng.Intn(r.nW), rng.Intn(r.nU)
			}
			s := NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.AccumulateBiasScratch(wi, ui, 0, s)
			}
		})
	}
}

// BenchmarkMaxPool measures one pooling-window evaluation through the
// encoder-CAM path.
func BenchmarkMaxPool(b *testing.B) {
	r, _, _ := hotNeuron()
	win := []int{1, 3, 0, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.MaxPool(win)
	}
}
