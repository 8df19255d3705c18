package rna

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/counting"
	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/ndcam"
	"repro/internal/quant"
)

// FuncRNA is a functional RNA block: it evaluates one neuron end-to-end
// through the hardware substrates — parallel counting, shift-add expansion,
// NOR-decomposed in-memory addition of fixed-point products, an NDCAM
// activation lookup and an NDCAM encoder — rather than through float math.
// It exists to validate that the hardware path computes what the software
// reinterpreted model promises.
type FuncRNA struct {
	dev      device.Params
	wcb, ucb []float32
	// products is the fixed-point pre-computed product table, flattened to a
	// single stride-indexed row-major slice: product (w,u) lives at
	// products[w·nU + u]. One backing array keeps the whole table on a few
	// cache lines and spares the per-row pointer chase of a [][]int64.
	products []int64
	nW, nU   int
	bias     int64
	fracBits uint

	actTable *quant.ActTable
	actCAM   *ndcam.NDCAM
	actFP    ndcam.FixedPoint
	relu     bool

	encCB  []float32
	encCAM *ndcam.NDCAM
	encFP  ndcam.FixedPoint

	// actKey/encKey are the process-unique identities of this block's CAMs in
	// the batch-scoped lookup cache (camcache.go).
	actKey, encKey uint32

	// Fault overlay and protection (faults.go). flt == nil is the pristine
	// fast path; prot's zero value is the unprotected design; cnt is nil-safe.
	flt  *faultState
	prot fault.Protection
	cnt  *fault.Counters

	// LastStats reports substrate activity of the most recent Fire.
	LastStats crossbar.Stats
}

const sumWidth = 32

// NewFuncRNA configures a functional RNA for one neuron. actTable may be
// nil with relu=true for the comparator path; nextCodebook is the consuming
// layer's input codebook the output is encoded with.
func NewFuncRNA(dev device.Params, wcb, ucb []float32, bias float32,
	actTable *quant.ActTable, relu bool, nextCodebook []float32, fracBits uint) *FuncRNA {
	return NewFuncRNAShared(dev, wcb, ucb, bias, actTable, relu, nextCodebook, fracBits, nil)
}

// NewFuncRNAShared is NewFuncRNA with an optionally pre-composed product
// table: when products is non-nil it must be the stride-indexed
// [len(wcb)·len(ucb)] table at fracBits fractional bits (what
// composer.SaveFlat embeds in RAPIDNN2 artifacts), and the block BORROWS it
// — typically a read-only view into an mmap'd artifact, shared by every
// block configured from the same codebook group. The caller owns the
// backing memory and must keep it mapped for the block's lifetime
// (composer.Composed.Close is the usual release point). A nil products
// recomputes the table locally, bit-identically.
func NewFuncRNAShared(dev device.Params, wcb, ucb []float32, bias float32,
	actTable *quant.ActTable, relu bool, nextCodebook []float32, fracBits uint, products []int64) *FuncRNA {
	if len(wcb) == 0 || len(ucb) == 0 || len(nextCodebook) == 0 {
		panic("rna: empty codebook")
	}
	if actTable == nil && !relu {
		panic("rna: need an activation table or the ReLU comparator")
	}
	r := &FuncRNA{
		dev: dev, wcb: wcb, ucb: ucb,
		bias: toFixed(float64(bias), fracBits), fracBits: fracBits,
		actTable: actTable, relu: relu, encCB: nextCodebook,
	}
	r.nW, r.nU = len(wcb), len(ucb)
	r.actKey, r.encKey = nextCAMKeys()
	if products != nil {
		if len(products) != r.nW*r.nU {
			panic(fmt.Sprintf("rna: borrowed product table holds %d entries, codebooks want %d×%d",
				len(products), r.nW, r.nU))
		}
		// The pristine path only ever reads the table (fault injection is an
		// overlay, faults.go), so a read-only mapping is safe to borrow.
		r.products = products
	} else {
		// Pre-compute the crossbar product table (what the composer writes at
		// configuration time, §3.3).
		r.products = make([]int64, r.nW*r.nU)
		for wi, wv := range wcb {
			row := r.products[wi*r.nU : (wi+1)*r.nU]
			for ui, uv := range ucb {
				row[ui] = toFixed(float64(wv)*float64(uv), fracBits)
			}
		}
	}
	if actTable != nil {
		lo, hi := float64(actTable.Y[0]), float64(actTable.Y[len(actTable.Y)-1])
		r.actFP = ndcam.NewFixedPoint(lo, hi, 16)
		r.actCAM = ndcam.New(dev, 16, ndcam.Weighted)
		for _, y := range actTable.Y {
			r.actCAM.Write(r.actFP.Encode(float64(y)))
		}
	}
	lo, hi := float64(nextCodebook[0]), float64(nextCodebook[len(nextCodebook)-1])
	if hi <= lo {
		hi = lo + 1
	}
	r.encFP = ndcam.NewFixedPoint(lo, hi, 16)
	r.encCAM = ndcam.New(dev, 16, ndcam.Weighted)
	for _, v := range nextCodebook {
		r.encCAM.Write(r.encFP.Encode(float64(v)))
	}
	return r
}

// Fire evaluates the neuron on encoded operands: weightIdx[i] and
// inputIdx[i] are the codebook indices of edge i. It returns the encoded
// output index and its decoded codebook value, recording the substrate
// activity in LastStats. Not safe for concurrent use — concurrent callers
// evaluate through Eval instead.
func (r *FuncRNA) Fire(weightIdx, inputIdx []int) (encoded int, value float32) {
	encoded, value, stats := r.Eval(weightIdx, inputIdx, r.bias)
	r.LastStats = stats
	return encoded, value
}

// Eval is the re-entrant end-to-end evaluation: accumulate → activate →
// encode, with the bias passed as an argument and the crossbar activity
// returned as a value. It never mutates the RNA, so one configured block can
// evaluate many neurons from many goroutines concurrently. The working set
// is borrowed from the internal scratch pool; a worker that owns a Scratch
// calls EvalScratch instead.
func (r *FuncRNA) Eval(weightIdx, inputIdx []int, bias int64) (encoded int, value float32, stats crossbar.Stats) {
	s := scratchPool.Get().(*Scratch)
	encoded, value, stats = r.EvalScratch(weightIdx, inputIdx, bias, s)
	scratchPool.Put(s)
	return encoded, value, stats
}

// EvalScratch is Eval with a caller-owned Scratch: the whole accumulate →
// activate → encode pipeline runs in s's buffers, so steady state performs
// zero heap allocations on the pristine (fault-free) path. The RNA itself is
// never mutated; concurrency is bounded only by the rule that each Scratch
// belongs to one goroutine.
func (r *FuncRNA) EvalScratch(weightIdx, inputIdx []int, bias int64, s *Scratch) (encoded int, value float32, stats crossbar.Stats) {
	pre, stats := r.AccumulateBiasScratch(weightIdx, inputIdx, bias, s)
	encoded, value = r.encodeValue(r.activate(pre, s), s)
	return encoded, value, stats
}

// Accumulate runs the weighted-accumulation pipeline with the block's
// configured bias, recording the activity in LastStats. Not safe for
// concurrent use; see AccumulateBias.
func (r *FuncRNA) Accumulate(weightIdx, inputIdx []int) float64 {
	pre, stats := r.AccumulateBias(weightIdx, inputIdx, r.bias)
	r.LastStats = stats
	return pre
}

// AccumulateBias runs the weighted-accumulation pipeline — parallel counting
// (§4.1.1), shift-add expansion of the counts, and NOR-decomposed in-memory
// addition (§4.1.2) — returning the real-valued pre-activation and the
// crossbar activity of this evaluation. bias is the neuron's fixed-point
// bias (ToFixed with the block's fraction bits). The receiver is read-only,
// so the call is safe from any number of goroutines; the working set is
// borrowed from the internal scratch pool.
func (r *FuncRNA) AccumulateBias(weightIdx, inputIdx []int, bias int64) (float64, crossbar.Stats) {
	s := scratchPool.Get().(*Scratch)
	pre, stats := r.AccumulateBiasScratch(weightIdx, inputIdx, bias, s)
	scratchPool.Put(s)
	return pre, stats
}

// AccumulateBiasScratch is AccumulateBias evaluated in the caller's Scratch:
// the counting histogram and its touched-bucket bitmap, the adder operands
// and the adder's crossbar rows all live in s, so steady state allocates
// nothing. The expansion visits only the buckets the neuron counted, by
// scanning the bitmap, in ascending (w,u) order — the order of the dense
// walk it replaces — so product reads, and with them the transient fault
// events keyed by read sequence, happen in the same order, and the sum and
// Stats are bit-identical (the NOR schedule depends only on the addend
// population). Each bucket and bitmap word is zeroed as it is read, which
// leaves s's histogram clean for the next call without a w·u-sized clear.
func (r *FuncRNA) AccumulateBiasScratch(weightIdx, inputIdx []int, bias int64, s *Scratch) (float64, crossbar.Stats) {
	if len(weightIdx) != len(inputIdx) {
		panic(fmt.Sprintf("rna: %d weights vs %d inputs", len(weightIdx), len(inputIdx)))
	}
	// 1. Parallel counting of product occurrences (§4.1.1) into the flat
	// (w·u) histogram, marking each touched bucket in the bitmap.
	counts, touched := s.histogram(r.nW * r.nU)
	counting.CountFlat(weightIdx, inputIdx, r.nW, r.nU, counts, touched)

	// 2. Shift-add expansion of each counted product into tree addends.
	addends := s.addends[:0]
	for k, word := range touched {
		if word == 0 {
			continue
		}
		touched[k] = 0
		for ; word != 0; word &= word - 1 {
			idx := k<<6 + bits.TrailingZeros64(word)
			c := counts[idx]
			counts[idx] = 0
			addends = counting.AppendShiftAdd(addends, r.productAt(idx), uint(c), math.MaxUint32)
		}
	}
	addends = append(addends, uint64(bias)&math.MaxUint32)
	s.addends = addends

	// 3. NOR-decomposed in-memory addition (§4.1.2).
	raw, stats := s.add.AddMany(r.dev, addends, sumWidth)
	sum := int64(int32(uint32(raw)))
	return fromFixed(sum, r.fracBits), stats
}

// Activate applies the activation stage: an NDCAM table search, or the ReLU
// comparator (§4.2.1). The search is re-entrant (SearchStats), so Activate
// is safe for concurrent use. The fault-free search allocates nothing; only
// a fault overlay needs candidate bookkeeping, borrowed per call here and
// scratch-backed on the EvalScratch path.
func (r *FuncRNA) Activate(pre float64) float64 {
	return r.activate(pre, nil)
}

func (r *FuncRNA) activate(pre float64, s *Scratch) float64 {
	if r.relu {
		if pre > 0 {
			return pre
		}
		return 0
	}
	row := r.searchActCAM(r.actFP.Encode(pre), s)
	return float64(r.actTable.Z[row])
}

// EncodeValue maps an activation output onto the consuming layer's codebook
// through the encoder NDCAM (§2.2, Fig. 2d). Safe for concurrent use.
func (r *FuncRNA) EncodeValue(z float64) (encoded int, value float32) {
	return r.encodeValue(z, nil)
}

func (r *FuncRNA) encodeValue(z float64, s *Scratch) (encoded int, value float32) {
	encoded = r.searchEncCAM(r.encFP.Encode(z), s)
	return encoded, r.encCB[encoded]
}

// MaxPool runs the pooling path (§4.2.1): the window's encoded values are
// written into the encoder CAM and a search over the codebook extremes
// finds the largest entry. Because codebook levels are sorted, comparing
// encoded indices equals comparing values, so the result is simply the
// maximum index — which is what the hardware's nearest-to-+∞ search yields.
// The pooling CAM's substrate activity — one write per window entry plus the
// search — is recorded in LastStats, so MaxPool is not safe for concurrent
// use; concurrent callers evaluate through MaxPoolStats instead.
func (r *FuncRNA) MaxPool(encodedWindow []int) int {
	s := scratchPool.Get().(*Scratch)
	row, stats := r.MaxPoolStats(encodedWindow, s)
	scratchPool.Put(s)
	r.LastStats = stats
	return row
}

// MaxPoolStats is the re-entrant pooling evaluation: the window runs through
// the scratch's reusable pooling CAM (one CAM per Scratch, refilled per
// window, instead of a fresh CAM allocation per call) and the CAM's write
// and search activity is returned as a value rather than dropped.
func (r *FuncRNA) MaxPoolStats(encodedWindow []int, s *Scratch) (int, crossbar.Stats) {
	if len(encodedWindow) == 0 {
		panic("rna: empty pooling window")
	}
	cam := s.poolCAM(r.dev)
	cam.Reset()
	cam.Stats = ndcam.Stats{}
	for _, e := range encodedWindow {
		cam.Write(r.encFP.Encode(float64(r.encCB[e])))
	}
	row := cam.Search(r.encFP.Encode(math.Inf(1)))
	return encodedWindow[row], camToCrossbarStats(cam.Stats)
}

// camToCrossbarStats folds NDCAM activity into the crossbar-stat totals the
// inference path reports: cycles, writes and energy carry over directly.
func camToCrossbarStats(s ndcam.Stats) crossbar.Stats {
	return crossbar.Stats{Cycles: s.Cycles, Writes: s.Writes, EnergyJ: s.EnergyJ}
}

// InjectStuckFaults pins each fault-susceptible cell of every pre-stored
// product with the given probability — stuck-at faults in the crossbar's
// resistive cells, split evenly between stuck-at-1 and stuck-at-0. A pinned
// cell is idempotent under re-reads, and the injection is an overlay: the
// pristine table is untouched, ClearFaults restores the block bit-exactly,
// and a new injection replaces the previous map. It returns the number of
// pinned cells whose value differs from the pristine stored bit.
func (r *FuncRNA) InjectStuckFaults(rate float64, rng *rand.Rand) int {
	if rate <= 0 {
		return 0
	}
	return r.injectFaults(fault.Config{StuckRate: rate}, rng, r.cnt).StuckBits
}

// toFixed / fromFixed delegate to the shared quant conversions so the
// locally composed tables stay bit-identical to artifact-embedded ones.
func toFixed(v float64, frac uint) int64 { return quant.ToFixed(v, frac) }

func fromFixed(v int64, frac uint) float64 { return quant.FromFixed(v, frac) }
