package counting

import (
	"math/rand"
	"testing"
)

// CountFlat is ParallelCount minus the cycle-accurate replay and the map:
// on random edge streams into clean buffers the flat histogram must hold
// exactly the replay's counts, and the bitmap must mark exactly the counted
// buckets — including codebooks wider than 64 and w·u not a multiple of 64,
// where the last bitmap word is partly past the histogram.
func TestCountFlatMatchesParallelCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		w, u := 1+rng.Intn(80), 1+rng.Intn(80)
		edges := rng.Intn(300)
		pairs := make([]Pair, edges)
		wi := make([]int, edges)
		ui := make([]int, edges)
		for i := range pairs {
			pairs[i] = Pair{W: rng.Intn(w), U: rng.Intn(u)}
			wi[i], ui[i] = pairs[i].W, pairs[i].U
		}
		ref := ParallelCount(pairs, w)
		counts := make([]int, w*u)
		touched := make([]uint64, (w*u+63)/64)
		CountFlat(wi, ui, w, u, counts, touched)
		for wIdx := 0; wIdx < w; wIdx++ {
			for uIdx := 0; uIdx < u; uIdx++ {
				idx := wIdx*u + uIdx
				got, want := counts[idx], ref.Counts[Pair{W: wIdx, U: uIdx}]
				if got != want {
					t.Fatalf("trial %d: count(%d,%d) = %d, ParallelCount says %d", trial, wIdx, uIdx, got, want)
				}
				if marked := touched[idx/64]>>(idx%64)&1 == 1; marked != (want > 0) {
					t.Fatalf("trial %d (w=%d,u=%d): bucket (%d,%d) marked %v with count %d",
						trial, w, u, wIdx, uIdx, marked, want)
				}
			}
		}
		if tail := w * u % 64; tail != 0 && touched[len(touched)-1]>>tail != 0 {
			t.Fatalf("trial %d (w=%d,u=%d): bitmap bits set past the histogram: %#x",
				trial, w, u, touched[len(touched)-1])
		}
	}
}

// CountFlat validates its inputs like ParallelCount does, and a rejected
// edge list must not leave the buffers dirty: the histogram and bitmap are
// clean on entry by contract, so a recovered panic must restore them.
func TestCountFlatValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	buf := make([]int, 4)
	bm := make([]uint64, 1)
	expectPanic("mismatched operands", func() { CountFlat([]int{0}, nil, 2, 2, buf, bm) })
	expectPanic("short histogram", func() { CountFlat([]int{0}, []int{0}, 2, 3, buf, bm) })
	expectPanic("short bitmap", func() { CountFlat([]int{0}, []int{0}, 2, 2, buf, nil) })
	expectPanic("weight out of range", func() { CountFlat([]int{1, 2}, []int{1, 0}, 2, 2, buf, bm) })
	expectPanic("input out of range", func() { CountFlat([]int{0, 1, 0}, []int{0, 1, -1}, 2, 2, buf, bm) })
	expectPanic("bad dims", func() { CountFlat(nil, nil, 0, 2, buf, bm) })
	for i, c := range buf {
		if c != 0 {
			t.Fatalf("rejected edge lists left histogram bucket %d at %d: %v", i, c, buf)
		}
	}
	if bm[0] != 0 {
		t.Fatalf("rejected edge lists left bitmap %#x", bm[0])
	}
}

// The hot-path forms are allocation-free: CountFlat writes only the caller's
// buffers, DecomposeAppend reuses the caller's term slice and AppendShiftAdd
// the caller's addend slice.
func TestCountingHotPathZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const w, u, edges = 16, 16, 96
	wi := make([]int, edges)
	ui := make([]int, edges)
	for i := range wi {
		wi[i], ui[i] = rng.Intn(w), rng.Intn(u)
	}
	counts := make([]int, w*u)
	touched := make([]uint64, w*u/64)
	if allocs := testing.AllocsPerRun(200, func() {
		CountFlat(wi, ui, w, u, counts, touched)
		clear(counts)
		clear(touched)
	}); allocs != 0 {
		t.Fatalf("CountFlat allocates %v per op, want 0", allocs)
	}
	terms := make([]Term, 0, 16)
	if allocs := testing.AllocsPerRun(200, func() {
		terms = DecomposeAppend(1023, terms[:0])
	}); allocs != 0 {
		t.Fatalf("DecomposeAppend allocates %v per op, want 0", allocs)
	}
	addends := make([]uint64, 0, 16)
	if allocs := testing.AllocsPerRun(200, func() {
		addends = AppendShiftAdd(addends[:0], -77, 1023, 1<<32-1)
	}); allocs != 0 {
		t.Fatalf("AppendShiftAdd allocates %v per op, want 0", allocs)
	}
}

// AppendShiftAdd must append exactly the addends Decompose's terms describe
// — ±(v << Shift), in term order, truncated by the mask — after whatever
// the destination already holds, so their masked sum is c·v in the adder's
// modular arithmetic.
func TestAppendShiftAddMatchesDecompose(t *testing.T) {
	const mask = 1<<32 - 1
	buf := []uint64{99}
	for _, v := range []int64{0, 1, -1, 3, -1234, 1 << 20, -(1 << 30)} {
		for c := 0; c < 2000; c++ {
			terms := Decompose(c)
			got := AppendShiftAdd(buf[:1], v, uint(c), mask)
			if got[0] != 99 {
				t.Fatalf("v=%d c=%d: prefix clobbered: %v", v, c, got)
			}
			if len(got)-1 != len(terms) {
				t.Fatalf("v=%d c=%d: %d addends, Decompose has %d terms", v, c, len(got)-1, len(terms))
			}
			var sum uint64
			for i, term := range terms {
				want := v << term.Shift
				if term.Sub {
					want = -want
				}
				if got[i+1] != uint64(want)&mask {
					t.Fatalf("v=%d c=%d: addend %d is %#x, term %+v gives %#x", v, c, i, got[i+1], term, uint64(want)&mask)
				}
				sum += got[i+1]
			}
			if sum&mask != uint64(int64(c)*v)&mask {
				t.Fatalf("v=%d c=%d: addends sum to %#x, want c·v = %#x", v, c, sum&mask, uint64(int64(c)*v)&mask)
			}
		}
	}
}

// DecomposeAppend must produce exactly Decompose's terms for every count,
// appended after whatever the destination already holds.
func TestDecomposeAppendMatchesDecompose(t *testing.T) {
	buf := []Term{{Shift: 99}}
	for c := 0; c < 2000; c++ {
		want := Decompose(c)
		got := DecomposeAppend(c, buf[:1])
		if got[0].Shift != 99 {
			t.Fatalf("c=%d: prefix clobbered: %v", c, got)
		}
		if len(got)-1 != len(want) {
			t.Fatalf("c=%d: %d terms, Decompose says %d", c, len(got)-1, len(want))
		}
		for i, term := range want {
			if got[i+1] != term {
				t.Fatalf("c=%d: term %d is %+v, Decompose says %+v", c, i, got[i+1], term)
			}
		}
	}
}
