package rna

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/counting"
	"repro/internal/crossbar"
	"repro/internal/fault"
)

// denseAccumulate is the dense reference for AccumulateBiasScratch: the
// cycle-accurate ParallelCount, then every (w,u) bucket in full row-major
// order, reading each counted product and expanding it through Decompose,
// then the scalar reference adder.
func denseAccumulate(r *FuncRNA, weightIdx, inputIdx []int, bias int64) (float64, crossbar.Stats) {
	pairs := make([]counting.Pair, len(weightIdx))
	for i := range pairs {
		pairs[i] = counting.Pair{W: weightIdx[i], U: inputIdx[i]}
	}
	res := counting.ParallelCount(pairs, r.nW)
	var addends []uint64
	for wi := 0; wi < r.nW; wi++ {
		for ui := 0; ui < r.nU; ui++ {
			c := res.Counts[counting.Pair{W: wi, U: ui}]
			if c == 0 {
				continue
			}
			prod := r.productAt(wi*r.nU + ui)
			for _, term := range counting.Decompose(c) {
				v := prod << term.Shift
				if term.Sub {
					v = -v
				}
				addends = append(addends, uint64(v)&math.MaxUint32)
			}
		}
	}
	addends = append(addends, uint64(bias)&math.MaxUint32)
	raw, stats := crossbar.AddManyReference(r.dev, addends, sumWidth)
	return fromFixed(int64(int32(uint32(raw))), r.fracBits), stats
}

// The touched-bucket walk must be indistinguishable from the dense walk: the
// same sum and Stats, and — under stuck-at, transient and parity overlays —
// the same fault counters, which only holds if products are read in the
// same order, since transient flips are keyed by the read-event sequence.
// Codebook sizes cover nW > 64 and nW·nU not a multiple of 64; edge lists
// run from empty (bias only) to a few buckets counted many times. One
// Scratch serves every block and call, and must come back with an all-zero
// histogram and bitmap each time — the clean-on-entry contract of
// counting.CountFlat.
func TestAccumulateMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	s := NewScratch()
	var flips, corrected int64
	for trial := 0; trial < 90; trial++ {
		nW, nU := 1+rng.Intn(80), 1+rng.Intn(80)
		switch trial {
		case 0:
			nW, nU = 65, 3 // nW > 64, and 195 buckets end mid-word
		case 1:
			nW, nU = 16, 16 // the bulk-conv shape: exactly four words
		}
		wcb := randomCodebook(rng, nW, 0.5)
		ucb := randomCodebook(rng, nU, 1.0)
		next := randomCodebook(rng, 8, 1.0)
		sparse := NewFuncRNA(dev(), wcb, ucb, 0, nil, true, next, hwFracBits)
		dense := NewFuncRNA(dev(), wcb, ucb, 0, nil, true, next, hwFracBits)

		// Twin blocks with equal fault maps and separate counters: the
		// dense reference reads from one, the sparse walk from the other.
		var sparseCnt, denseCnt fault.Counters
		mode := trial % 3 // 0 pristine, 1 stuck+transient, 2 plus parity and spares
		if mode > 0 {
			cfg := fault.Config{StuckRate: 0.02, TransientRate: 0.01}
			seed := rng.Int63()
			sparse.injectFaults(cfg, rand.New(rand.NewSource(seed)), &sparseCnt)
			dense.injectFaults(cfg, rand.New(rand.NewSource(seed)), &denseCnt)
		}
		if mode == 2 {
			prot := fault.Protection{Parity: true, SpareRows: rng.Intn(8)}
			sparse.SetProtection(prot, &sparseCnt)
			dense.SetProtection(prot, &denseCnt)
		}

		for call := 0; call < 4; call++ {
			n := 0 // the first call of every block is bias only
			if call > 0 {
				n = rng.Intn(300)
			}
			wi := make([]int, n)
			ui := make([]int, n)
			hot := 1 + rng.Intn(3) // on odd calls, edges pile onto few buckets
			for i := range wi {
				if call%2 == 1 {
					wi[i], ui[i] = (i%hot)*nW/hot, (i%hot)*nU/hot
				} else {
					wi[i], ui[i] = rng.Intn(nW), rng.Intn(nU)
				}
			}
			bias := int64(rng.Intn(1<<14) - 1<<13)

			want, wantStats := denseAccumulate(dense, wi, ui, bias)
			got, gotStats := sparse.AccumulateBiasScratch(wi, ui, bias, s)
			if got != want || gotStats != wantStats {
				t.Fatalf("trial %d call %d (%d×%d, %d edges, mode %d): sparse (%v, %+v), dense (%v, %+v)",
					trial, call, nW, nU, n, mode, got, gotStats, want, wantStats)
			}
			for i, c := range s.counts[:cap(s.counts)] {
				if c != 0 {
					t.Fatalf("trial %d call %d: histogram bucket %d left at %d", trial, call, i, c)
				}
			}
			for i, word := range s.touched[:cap(s.touched)] {
				if word != 0 {
					t.Fatalf("trial %d call %d: bitmap word %d left at %#x", trial, call, i, word)
				}
			}
		}
		if got, want := sparseCnt.Snapshot(), denseCnt.Snapshot(); got != want {
			t.Fatalf("trial %d (%d×%d, mode %d): fault counters diverge: sparse %+v, dense %+v",
				trial, nW, nU, mode, got, want)
		}
		flips += sparseCnt.TransientFlips.Load()
		corrected += sparseCnt.Corrected.Load()
	}
	// The counter comparison is only a read-order check if reads flipped
	// bits and parity corrected some of them.
	if flips == 0 || corrected == 0 {
		t.Fatalf("overlays never fired: %d transient flips, %d corrections", flips, corrected)
	}
}
