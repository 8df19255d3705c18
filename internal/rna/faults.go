package rna

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/ndcam"
)

// This file wires the fault models of internal/fault into the functional
// hardware path. Every model is an overlay over the pristine configuration:
// the pre-computed product tables and the CAM contents are never mutated, a
// faulty read composes the pristine word with the drawn fault map on the fly,
// and dropping the overlay (ClearFaults) restores the block bit-exactly. One
// composed network can therefore sweep many fault configurations — and many
// protection combinations per configuration — without re-lowering.

// wordFaults pins individual cells of one stored product word. sa0/sa1 cover
// the fault-susceptible data cells, csa0/csa1 the SEC-DED check cells (drawn
// unconditionally so toggling parity after injection sees a consistent map).
type wordFaults struct {
	sa0, sa1   uint64
	csa0, csa1 uint8
}

// faultState is one drawn fault map. It is written only at injection time;
// during inference it is read-only except for the atomic read-event counter,
// so concurrent inference workers need no locking.
type faultState struct {
	// stuck[w][u] pins cells of product (w,u); nil when no stuck faults drawn.
	stuck [][]wordFaults
	// remap[w][u]: the word is remapped to a fault-free spare row and reads
	// its pristine contents. Rebuilt by reconcileSpares.
	remap [][]bool
	// sa0f/sa1f/csa0f/csa1f are the flat, index-parallel fold of stuck with
	// the remap applied: entry wi·nU+ui holds the word's pinned-cell masks,
	// zeroed for remapped words (a spare row reads pristine). faultyProductAt
	// applies any overlay with two mask ops and no remap branch. Rebuilt by
	// foldStuck whenever the map or the spare budget changes.
	sa0f, sa1f   []uint64
	csa0f, csa1f []uint8

	transientRate float64
	transientSeed int64
	// reads numbers every product fetch; the transient mask of a read is a
	// pure function of (seed, event), so workers share this atomic counter
	// instead of a locked RNG. The drawn mask sequence is deterministic, but
	// which fetch receives which event number depends on goroutine and map
	// iteration order — transient runs are seeded, not bit-reproducible.
	reads atomic.Uint64

	// Row-failure overlays, three independently drawn replicas per CAM.
	// Replica 0 is the primary (unprotected) view — enabling TMR adds voting
	// over replicas 1 and 2 without changing what "unprotected" means.
	act, enc [3][]ndcam.RowFault
	// actFM/encFM are the word-parallel compilations of act/enc (built once
	// at injection); searches apply them via ndcam.SearchStatsMasked instead
	// of re-classifying rows per search. A nil mask means the replica's
	// overlay is a no-op (all rows OK).
	actFM, encFM [3]*ndcam.FaultMask
}

// faultBits is the span of fault-susceptible cells in a stored product word:
// the device's significant product bits plus the half of the fraction bits
// that carries real precision (matching the historical injection scope).
func (r *FuncRNA) faultBits() int {
	return r.dev.ProductBits + int(r.fracBits)/2
}

// injectFaults draws a fresh fault map for this block from rng, replacing any
// previous map, and returns what was drawn. cnt receives protection and
// transient event counts from subsequent reads (nil disables counting).
func (r *FuncRNA) injectFaults(cfg fault.Config, rng *rand.Rand, cnt *fault.Counters) fault.Report {
	f := &faultState{transientRate: cfg.TransientRate, transientSeed: rng.Int63()}
	rep := fault.Report{TransientRate: cfg.TransientRate}
	if cfg.StuckRate > 0 {
		nbits := r.faultBits()
		oneFrac := cfg.OneFrac()
		pin := func(w *uint64, b int) {
			*w |= 1 << uint(b)
		}
		f.stuck = make([][]wordFaults, r.nW)
		for wi := 0; wi < r.nW; wi++ {
			f.stuck[wi] = make([]wordFaults, r.nU)
			for ui := 0; ui < r.nU; ui++ {
				w := &f.stuck[wi][ui]
				for b := 0; b < nbits; b++ {
					if rng.Float64() >= cfg.StuckRate {
						continue
					}
					rep.StuckCells++
					if rng.Float64() < oneFrac {
						pin(&w.sa1, b)
					} else {
						pin(&w.sa0, b)
					}
				}
				var c0, c1 uint64
				for b := 0; b < fault.CheckBits; b++ {
					if rng.Float64() >= cfg.StuckRate {
						continue
					}
					rep.StuckCells++
					if rng.Float64() < oneFrac {
						pin(&c1, b)
					} else {
						pin(&c0, b)
					}
				}
				w.csa0, w.csa1 = uint8(c0), uint8(c1)
				pristine := uint64(r.products[wi*r.nU+ui]) & math.MaxUint32
				rep.StuckBits += bits.OnesCount64(((pristine &^ w.sa0) | w.sa1) ^ pristine)
			}
		}
	}
	if cfg.CAMRowRate > 0 {
		shortFrac := cfg.ShortFrac()
		draw := func(cam *ndcam.NDCAM) (reps [3][]ndcam.RowFault) {
			if cam == nil {
				return reps
			}
			for k := 0; k < 3; k++ {
				rf := make([]ndcam.RowFault, cam.Len())
				for i := range rf {
					if rng.Float64() >= cfg.CAMRowRate {
						continue
					}
					if rng.Float64() < shortFrac {
						rf[i] = ndcam.RowShort
					} else {
						rf[i] = ndcam.RowDead
					}
					if k == 0 {
						rep.CAMRowsFailed++
					}
				}
				reps[k] = rf
			}
			return reps
		}
		f.act = draw(r.actCAM)
		f.enc = draw(r.encCAM)
		for k := 0; k < 3; k++ {
			f.actFM[k] = ndcam.BuildFaultMask(f.act[k])
			f.encFM[k] = ndcam.BuildFaultMask(f.enc[k])
		}
	}
	r.flt = f
	r.cnt = cnt
	r.reconcileSpares()
	return rep
}

// ClearFaults drops the fault overlay, restoring pristine behaviour exactly.
// The protection configuration is retained. Like injection, it must not run
// concurrently with inference.
func (r *FuncRNA) ClearFaults() { r.flt = nil }

// SetProtection switches the block's protection mechanisms and re-derives
// the spare-row repair for the current fault map, so injection and protection
// can be configured in either order. cnt receives the protection event
// counts (nil disables counting).
func (r *FuncRNA) SetProtection(p fault.Protection, cnt *fault.Counters) {
	r.prot = p
	r.cnt = cnt
	r.reconcileSpares()
}

// stuckDiff counts the cells of word (wi,ui) whose pinned value differs from
// the pristine stored bit — data cells always, check cells only when parity
// stores them. This is what a march test observes per word.
func (r *FuncRNA) stuckDiff(wi, ui int) int {
	w := &r.flt.stuck[wi][ui]
	pristine := uint64(r.products[wi*r.nU+ui]) & math.MaxUint32
	d := bits.OnesCount64(((pristine &^ w.sa0) | w.sa1) ^ pristine)
	if r.prot.Parity {
		check := uint64(fault.EncodeSECDED(uint32(pristine)))
		d += bits.OnesCount64(((check &^ uint64(w.csa0)) | uint64(w.csa1)) ^ check)
	}
	return d
}

// reconcileSpares re-derives the spare-row remap from the current fault map
// and spare budget — the repair pass a memory controller runs after a march
// test. The words with the most corrupting pinned cells are remapped first;
// ties break on table position so the repair is deterministic.
func (r *FuncRNA) reconcileSpares() {
	f := r.flt
	if f == nil || f.stuck == nil {
		return
	}
	f.remap = nil
	defer r.foldStuck() // re-fold the flat overlay under the new remap
	if r.prot.SpareRows <= 0 {
		return
	}
	type cand struct{ wi, ui, diff int }
	var cands []cand
	for wi := range f.stuck {
		for ui := range f.stuck[wi] {
			if d := r.stuckDiff(wi, ui); d > 0 {
				cands = append(cands, cand{wi, ui, d})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.diff != b.diff {
			return a.diff > b.diff
		}
		if a.wi != b.wi {
			return a.wi < b.wi
		}
		return a.ui < b.ui
	})
	f.remap = make([][]bool, len(f.stuck))
	for wi := range f.stuck {
		f.remap[wi] = make([]bool, len(f.stuck[wi]))
	}
	for i, c := range cands {
		if i >= r.prot.SpareRows {
			if r.cnt != nil {
				r.cnt.SpareShortfall.Add(int64(len(cands) - i))
			}
			break
		}
		f.remap[c.wi][c.ui] = true
		if r.cnt != nil {
			r.cnt.Remapped.Add(1)
		}
	}
}

// foldStuck flattens the per-word stuck-cell overlay into the index-parallel
// sa0f/sa1f/csa0f/csa1f arrays with the spare-row remap folded in: a remapped
// word's masks are zero, so applying the fold is identical to skipping the
// overlay for that word. Runs at injection and protection-change time only.
func (r *FuncRNA) foldStuck() {
	f := r.flt
	if f == nil || f.stuck == nil {
		return
	}
	nn := r.nW * r.nU
	if cap(f.sa0f) < nn {
		f.sa0f = make([]uint64, nn)
		f.sa1f = make([]uint64, nn)
		f.csa0f = make([]uint8, nn)
		f.csa1f = make([]uint8, nn)
	}
	f.sa0f, f.sa1f = f.sa0f[:nn], f.sa1f[:nn]
	f.csa0f, f.csa1f = f.csa0f[:nn], f.csa1f[:nn]
	for wi := 0; wi < r.nW; wi++ {
		for ui := 0; ui < r.nU; ui++ {
			idx := wi*r.nU + ui
			if f.remap != nil && f.remap[wi][ui] {
				f.sa0f[idx], f.sa1f[idx] = 0, 0
				f.csa0f[idx], f.csa1f[idx] = 0, 0
				continue
			}
			w := &f.stuck[wi][ui]
			f.sa0f[idx], f.sa1f[idx] = w.sa0, w.sa1
			f.csa0f[idx], f.csa1f[idx] = w.csa0, w.csa1
		}
	}
}

// productAt is the fault-aware fetch of the pre-computed product at flat
// index idx = w·nU + u. With no faults and no parity it is the direct table
// read, small enough to inline into the accumulation loop; otherwise the
// read goes through faultyProductAt. Safe for concurrent use during
// inference.
func (r *FuncRNA) productAt(idx int) int64 {
	if r.flt == nil && !r.prot.Parity {
		return r.products[idx]
	}
	return r.faultyProductAt(idx)
}

// faultyProductAt is the overlay read: the pristine word passes through the
// flat stuck-cell fold (remapped words carry zero masks), the per-read
// transient mask, and — when parity is on — the SEC-DED decode, whose
// corrected/uncorrectable outcomes are counted.
func (r *FuncRNA) faultyProductAt(idx int) int64 {
	f := r.flt
	data := uint64(r.products[idx]) & math.MaxUint32
	parity := r.prot.Parity
	var check uint64
	if parity {
		check = uint64(fault.EncodeSECDED(uint32(data)))
	}
	if f != nil {
		if f.sa0f != nil {
			data = (data &^ f.sa0f[idx]) | f.sa1f[idx]
			if parity {
				check = (check &^ uint64(f.csa0f[idx])) | uint64(f.csa1f[idx])
			}
		}
		if f.transientRate > 0 {
			ev := f.reads.Add(1)
			mask, n := fault.TransientMask(f.transientSeed, ev, r.faultBits(), f.transientRate)
			data ^= mask
			if parity {
				cmask, cn := fault.TransientMask(f.transientSeed^checkSeedSalt, ev, fault.CheckBits, f.transientRate)
				check ^= cmask
				n += cn
			}
			if n > 0 && r.cnt != nil {
				r.cnt.TransientFlips.Add(int64(n))
			}
		}
	}
	if parity {
		fixed, st := fault.DecodeSECDED(uint32(data), uint8(check))
		switch st {
		case fault.SECDEDCorrected:
			if r.cnt != nil {
				r.cnt.Detected.Add(1)
				r.cnt.Corrected.Add(1)
			}
			data = uint64(fixed)
		case fault.SECDEDUncorrectable:
			if r.cnt != nil {
				r.cnt.Detected.Add(1)
				r.cnt.Uncorrectable.Add(1)
			}
		}
	}
	return int64(int32(uint32(data)))
}

// checkSeedSalt decorrelates the check-cell transient stream from the data
// stream of the same read event.
const checkSeedSalt = 0x5ca1ab1e

// searchActCAM / searchEncCAM route the NDCAM searches through the
// batch-scoped lookup cache (when the owning scratch has it armed) and the
// row-fault overlay. Without TMR the primary replica's faults apply directly;
// with TMR the three independently drawn replicas vote 2-of-3 — bypassing the
// cache so the vote counters keep their per-search semantics — and a
// three-way disagreement falls back to the median row index; codebook rows
// are ordinal, so the median is the least-wrong arbiter. Safe for concurrent
// use (one goroutine per Scratch).
func (r *FuncRNA) searchActCAM(q uint64, s *Scratch) int {
	return r.cachedSearch(r.actCAM, true, r.actKey, q, s)
}

func (r *FuncRNA) searchEncCAM(q uint64, s *Scratch) int {
	return r.cachedSearch(r.encCAM, false, r.encKey, q, s)
}

// cachedSearch memoizes searchCAM per (CAM, query) in the scratch's
// batch-scoped cache. The search result is a pure function of the CAM
// contents and the fault overlay, both frozen for a batch, so a hit is
// exact; search Stats are not affected because the inference path discards
// them (activation/encoder searches charge nothing to crossbar totals).
func (r *FuncRNA) cachedSearch(cam *ndcam.NDCAM, activation bool, key uint32, q uint64, s *Scratch) int {
	if s == nil || !s.camOn || r.prot.TMR {
		return r.searchCAM(cam, activation, q, s)
	}
	if row, ok := s.camLookup(key, q); ok {
		s.camHits++
		return row
	}
	row := r.searchCAM(cam, activation, q, s)
	s.camStore(key, q, row)
	s.camMisses++
	return row
}

func (r *FuncRNA) searchCAM(cam *ndcam.NDCAM, activation bool, q uint64, s *Scratch) int {
	f := r.flt
	var reps *[3][]ndcam.RowFault
	var fms *[3]*ndcam.FaultMask
	if f != nil {
		if activation {
			reps, fms = &f.act, &f.actFM
		} else {
			reps, fms = &f.enc, &f.encFM
		}
	}
	if reps == nil || reps[0] == nil {
		// Pristine fast path: the fault-free search needs no candidate
		// bookkeeping at all.
		row, _ := cam.SearchStats(q)
		return row
	}
	if !r.prot.TMR {
		row, _ := cam.SearchStatsMasked(q, fms[0])
		return row
	}
	var idx [3]int
	for k := 0; k < 3; k++ {
		idx[k], _ = cam.SearchStatsMasked(q, fms[k])
	}
	if r.cnt != nil {
		r.cnt.TMRVotes.Add(1)
	}
	switch {
	case idx[0] == idx[1] || idx[0] == idx[2]:
		return idx[0]
	case idx[1] == idx[2]:
		return idx[1]
	}
	if r.cnt != nil {
		r.cnt.TMRDisagreements.Add(1)
	}
	mn, mx := idx[0], idx[0]
	for _, v := range idx[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return idx[0] + idx[1] + idx[2] - mn - mx
}
