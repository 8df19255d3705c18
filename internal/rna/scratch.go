package rna

import (
	"sync"

	"repro/internal/crossbar"
	"repro/internal/device"
	"repro/internal/ndcam"
)

// Scratch is the per-worker working set of the hot inference path. Every
// buffer the pipeline needs between two neuron fires — the counting
// histogram and its touched-bucket bitmap, the addend list, the in-memory
// adder's row storage and schedule table, the batch-scoped CAM lookup cache,
// the reusable pooling CAM, and the per-input activation buffers of the
// network executor — lives here, so a worker that owns one Scratch evaluates neurons
// and whole inputs without allocating in steady state.
//
// Ownership rules: a Scratch is NOT safe for concurrent use — it is the
// mutable state the re-entrant APIs (Eval/AccumulateBias/SearchStats) were
// stripped of. One goroutine, one Scratch. The zero-config APIs without a
// scratch parameter borrow one from an internal sync.Pool per call, so they
// stay allocation-light and safe from any number of goroutines.
type Scratch struct {
	// Neuron-fire pipeline. counts is the flat (w·u) counting histogram and
	// touched its bitmap of counted buckets (bit w·nU+u). Both are all-zero
	// between calls: AccumulateBiasScratch zeroes each bucket and word as it
	// reads it.
	counts  []int
	touched []uint64
	addends []uint64 // adder operands of one accumulation
	add     crossbar.AddScratch

	// Batch-scoped CAM lookup cache (camcache.go): activation and encoder
	// searches within one batch repeat heavily, so the batch drivers enable
	// this per-worker memo for their scratch's lifetime. Off (camOn false)
	// for direct EvalScratch users and pool-borrowed one-shot scratches.
	camCache           []camCacheEntry
	camGen             uint32
	camOn              bool
	camHits, camMisses uint64

	// Pooling: one CAM reused across MaxPool windows instead of a fresh
	// allocation per window. Rebuilt only if the device parameters change.
	pool    *ndcam.NDCAM
	poolDev device.Params

	// Network executor (inferOne): ping-pong activation buffers, the edge
	// gather buffer, and the recurrent state/frame buffers.
	actA, actB                 []int
	gather                     []int
	rnnState, rnnNext, rnnFeed []int
}

// NewScratch returns an empty scratch; buffers grow on first use and are
// retained afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// poolCAM returns the scratch's reusable pooling CAM for the given device,
// creating or rebuilding it only when the device parameters change.
func (s *Scratch) poolCAM(dev device.Params) *ndcam.NDCAM {
	if s.pool == nil || s.poolDev != dev {
		s.pool = ndcam.New(dev, 16, ndcam.Weighted)
		s.poolDev = dev
	}
	return s.pool
}

// histogram returns the all-zero counting histogram for n buckets and its
// touched bitmap, growing them only when n outgrows every earlier size. A
// shorter prefix of the clean buffers is clean too, so blocks of different
// codebook sizes share one Scratch.
func (s *Scratch) histogram(n int) ([]int, []uint64) {
	words := (n + 63) / 64
	if cap(s.counts) < n {
		s.counts = make([]int, n)
	}
	if cap(s.touched) < words {
		s.touched = make([]uint64, words)
	}
	return s.counts[:n], s.touched[:words]
}

// scratchPool backs the zero-config APIs: callers that do not thread a
// Scratch borrow one per call, so the historical signatures keep working
// and stay allocation-free in steady state.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// resizeInts returns buf resized to n entries, reallocating only on growth.
// Contents are unspecified; callers overwrite every entry.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
