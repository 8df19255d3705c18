// Package counting implements the weighted-accumulation bookkeeping of
// §4.1.1: instead of summing one product per incoming edge, RAPIDNN counts
// how often each pre-stored (weight, input) product occurs. Per-weight
// buffers feed the counters so that several edges are consumed per cycle
// without two increments colliding on the same counter, and each final
// count is folded into the sum with shift-and-add (with the longest-run-of-
// ones rewritten as 2^k − 1, e.g. 15 = 16 − 1).
package counting

import "fmt"

// Pair identifies a pre-stored product: the codebook indices of its weight
// and input operands.
type Pair struct {
	W int
	U int
}

// CountResult is the outcome of the parallel counting phase.
type CountResult struct {
	// Counts maps each (weight, input) pair to its occurrence count.
	Counts map[Pair]int
	// Cycles is the number of cycles the parallel scheme needed: one pop per
	// weight buffer per cycle, so it equals the largest bucket.
	Cycles int
	// SerialCycles is what the naive one-edge-per-cycle FIFO would need.
	SerialCycles int
	// Increments is the total number of counter increments performed.
	Increments int
}

// ParallelCount simulates the per-weight-buffer counting scheme over the
// edge stream. Each cycle pops at most one pending input per weight buffer;
// because all pairs selected in a cycle have distinct weights, they hit
// distinct counters ("no two of these combinations increment the same
// counter"). It panics on an edge whose weight index is outside [0, w).
func ParallelCount(pairs []Pair, w int) CountResult {
	if w < 1 {
		panic(fmt.Sprintf("counting: w = %d", w))
	}
	buckets := make([][]int, w)
	for _, p := range pairs {
		if p.W < 0 || p.W >= w {
			panic(fmt.Sprintf("counting: weight index %d out of [0,%d)", p.W, w))
		}
		buckets[p.W] = append(buckets[p.W], p.U)
	}
	res := CountResult{
		Counts:       make(map[Pair]int),
		SerialCycles: len(pairs),
	}
	for _, b := range buckets {
		if len(b) > res.Cycles {
			res.Cycles = len(b)
		}
	}
	// Cycle-accurate replay: verifies the conflict-freedom invariant while
	// producing the counts.
	for t := 0; t < res.Cycles; t++ {
		seen := make(map[Pair]bool)
		for wi, b := range buckets {
			if t >= len(b) {
				continue
			}
			p := Pair{W: wi, U: b[t]}
			if seen[p] {
				panic("counting: two increments hit one counter in a cycle")
			}
			seen[p] = true
			res.Counts[p]++
			res.Increments++
		}
	}
	return res
}

// CountFlat is the allocation-free counting phase for hot-path callers. The
// occurrence counts land in the caller's flat histogram counts[wIdx·u + uIdx]
// (length ≥ w·u), and each counted bucket sets bit wIdx·u + uIdx of the
// caller's bitmap touched (length ≥ ⌈w·u/64⌉ words). Scanning the bitmap
// word by word with bits.TrailingZeros64 visits exactly the counted
// products, in ascending (w,u) order, without walking the w·u buckets a
// sparse neuron never touched.
//
// Both buffers must be all-zero on entry; CountFlat never clears them
// wholesale. The caller keeps them clean by zeroing each bucket and bitmap
// word as it reads them. The histogram is exactly ParallelCount's Counts
// (TestCountFlatMatchesParallelCount). The cycle count of the parallel
// scheme is not computed here: no hot-path caller reads it, and
// ParallelCount remains its oracle. CountFlat panics on mismatched operand
// slices, short buffers and an index outside [0,w)×[0,u); a rejected edge
// list leaves both buffers as clean as it found them.
func CountFlat(weightIdx, inputIdx []int, w, u int, counts []int, touched []uint64) {
	if len(weightIdx) != len(inputIdx) {
		panic(fmt.Sprintf("counting: %d weights vs %d inputs", len(weightIdx), len(inputIdx)))
	}
	if w < 1 || u < 1 {
		panic(fmt.Sprintf("counting: w = %d, u = %d", w, u))
	}
	if len(counts) < w*u {
		panic(fmt.Sprintf("counting: histogram holds %d pairs, need %d", len(counts), w*u))
	}
	if need := (w*u + 63) / 64; len(touched) < need {
		panic(fmt.Sprintf("counting: bitmap holds %d words, need %d", len(touched), need))
	}
	counts = counts[:w*u]
	for i, wi := range weightIdx {
		ui := inputIdx[i]
		if uint(wi) >= uint(w) || uint(ui) >= uint(u) {
			uncount(weightIdx[:i], inputIdx[:i], u, counts, touched)
			panic(fmt.Sprintf("counting: edge %d indexes (%d,%d), outside [0,%d)×[0,%d)", i, wi, ui, w, u))
		}
		idx := wi*u + ui
		counts[idx]++
		touched[idx>>6] |= 1 << (idx & 63)
	}
}

// uncount zeroes the buckets and bitmap words the (already validated) edges
// touched, restoring the clean-on-entry state before CountFlat panics.
func uncount(weightIdx, inputIdx []int, u int, counts []int, touched []uint64) {
	for i, wi := range weightIdx {
		idx := wi*u + inputIdx[i]
		counts[idx] = 0
		touched[idx>>6] = 0
	}
}

// Term is one shifted addend of a count decomposition: ±(value << Shift).
type Term struct {
	Shift int
	Sub   bool
}

// Decompose rewrites a counter value as a minimal-weight sum of signed
// powers of two (non-adjacent form). This generalizes the paper's rules:
// powers of two become single shifts, 9 = 8+1 splits into two shifts, and
// runs of ones collapse (15 = 16 − 1). The returned terms are ordered from
// least to most significant shift.
func Decompose(c int) []Term {
	return DecomposeAppend(c, nil)
}

// DecomposeAppend is Decompose with caller-owned storage: the terms append
// to dst (usually a scratch slice reset to length 0), so a loop that reuses
// one buffer decomposes without allocating once the buffer has grown to the
// working-set size. A caller that needs only the addends of c·v calls
// AppendShiftAdd instead, which skips the terms altogether.
func DecomposeAppend(c int, dst []Term) []Term {
	if c < 0 {
		panic(fmt.Sprintf("counting: negative count %d", c))
	}
	shift := 0
	for c != 0 {
		if c&1 == 1 {
			d := 2 - (c & 3) // +1 if c ≡ 1 (mod 4), −1 if c ≡ 3 (mod 4)
			if d == 1 {
				dst = append(dst, Term{Shift: shift})
				c--
			} else {
				dst = append(dst, Term{Shift: shift, Sub: true})
				c++
			}
		}
		c >>= 1
		shift++
	}
	return dst
}

// AppendShiftAdd is the hot-path shift-add expansion of one counted
// product: it appends to dst the addends whose sum is c·v, one ±(v << Shift)
// per term of Decompose(c) in the same least-significant-first order, each
// truncated to the adder word by mask (e.g. 1<<32 − 1 for a 32-bit adder).
// It runs DecomposeAppend's digit recurrence without materialising the
// terms, so a caller needs no term buffer (TestAppendShiftAddMatchesDecompose
// pins the equivalence).
func AppendShiftAdd(dst []uint64, v int64, c uint, mask uint64) []uint64 {
	for ; c != 0; v <<= 1 {
		if c&1 == 1 {
			if c&3 == 1 {
				dst = append(dst, uint64(v)&mask)
				c--
			} else {
				dst = append(dst, uint64(-v)&mask)
				c++
			}
		}
		c >>= 1
	}
	return dst
}

// Apply evaluates a decomposition against v, returning c·v; it is the
// correctness oracle for Decompose.
func Apply(terms []Term, v int64) int64 {
	var sum int64
	for _, t := range terms {
		x := v << t.Shift
		if t.Sub {
			sum -= x
		} else {
			sum += x
		}
	}
	return sum
}

// AddSubOps returns the number of add/subtract operations the decomposition
// costs (terms − 1; a single shifted term is free of additions).
func AddSubOps(c int) int {
	n := len(Decompose(c))
	if n <= 1 {
		return 0
	}
	return n - 1
}

// BinaryOps returns the adds a plain binary decomposition would cost
// (popcount − 1), the baseline the runs-of-ones rewriting improves on.
func BinaryOps(c int) int {
	n := 0
	for c != 0 {
		n += c & 1
		c >>= 1
	}
	if n <= 1 {
		return 0
	}
	return n - 1
}
