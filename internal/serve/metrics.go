package serve

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/crossbar"
	"repro/internal/obs"
)

// latWindow bounds the latency reservoir: quantiles are computed over the
// most recent latWindow completions, so /stats reflects current behaviour
// rather than the whole process history.
const latWindow = 4096

// latencyBuckets is the fixed layout of the per-lane latency histogram:
// 100µs to ~13s in powers of two — wide enough for the software path's
// microsecond batches and the hardware path's second-scale ones.
var latencyBuckets = obs.ExpBuckets(0.0001, 2, 17)

// batchSizeBuckets is the fixed layout of the batch-size histogram,
// power-of-two steps up to the largest plausible MaxBatch.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Metrics aggregates one serving lane's counters: admission and outcome
// counts, the batch-size distribution, queue-wait and end-to-end latency
// histograms, a sliding latency window, and the substrate activity (NOR cycles, crossbar energy) folded out of rna.Stats.
//
// Since the observability rebase the counters and histograms are obs
// registry instruments — pre-registered handles whose observations are
// atomic bumps, keeping the dispatch path allocation-free — while the exact
// batch-size map and the sliding latency window (which Prometheus bucket
// layouts cannot express) stay under a small mutex for /stats. All methods
// are safe for concurrent use.
type Metrics struct {
	admitted  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	rejected  *obs.Counter
	canceled  *obs.Counter
	batches   *obs.Counter
	batchSzH  *obs.Histogram
	latencyH  *obs.Histogram
	waitH     *obs.Histogram
	subCycles *obs.Counter
	subNORs   *obs.Counter
	subReads  *obs.Counter
	subWrites *obs.Counter
	subEnergy *obs.FloatCounter

	mu        sync.Mutex
	batchSize map[int]uint64
	lat       [latWindow]time.Duration
	latIdx    int  // next write position, always in [0, latWindow)
	latFull   bool // the window has wrapped at least once
	hw        crossbar.Stats

	// Drain-rate estimator state: an EWMA of completions/second, sampled
	// lazily by DrainRate so the hot dispatch path pays nothing for it.
	drainMu        sync.Mutex
	drainCompleted uint64
	drainSample    time.Time
	drainRate      float64
}

// NewMetrics returns a sink backed by a private, unexposed registry — the
// shape tests and standalone batchers use. Servers register lanes into
// their shared registry with NewMetricsIn so /metrics can expose them.
func NewMetrics() *Metrics { return NewMetricsIn(obs.NewRegistry(), "default") }

// NewMetricsIn returns a sink whose instruments are registered in reg under
// the given lane label, so one registry exposes every lane side by side.
func NewMetricsIn(reg *obs.Registry, lane string) *Metrics {
	l := obs.L("lane", lane)
	outcome := func(o string) *obs.Counter {
		return reg.Counter("rapidnn_serve_requests_total",
			"Requests by final outcome (completed, failed, rejected, canceled).",
			l, obs.L("outcome", o))
	}
	return &Metrics{
		admitted:  reg.Counter("rapidnn_serve_admitted_total", "Requests admitted into the batching queue.", l),
		completed: outcome("completed"),
		failed:    outcome("failed"),
		rejected:  outcome("rejected"),
		canceled:  outcome("canceled"),
		batches:   reg.Counter("rapidnn_serve_batches_total", "Coalesced batches dispatched to the backend.", l),
		batchSzH: reg.Histogram("rapidnn_serve_batch_size",
			"Rows per dispatched batch.", batchSizeBuckets, l),
		latencyH: reg.Histogram("rapidnn_serve_latency_seconds",
			"End-to-end request latency from admission to delivery.", latencyBuckets, l),
		waitH: reg.Histogram("rapidnn_serve_queue_wait_seconds",
			"Time a request spent queued, from admission to the dispatch of its batch.", latencyBuckets, l),
		subCycles: reg.Counter("rapidnn_serve_substrate_cycles_total", "Substrate cycles spent on this lane.", l),
		subNORs:   reg.Counter("rapidnn_serve_substrate_nors_total", "NOR gate evaluations spent on this lane.", l),
		subReads:  reg.Counter("rapidnn_serve_substrate_reads_total", "Crossbar reads spent on this lane.", l),
		subWrites: reg.Counter("rapidnn_serve_substrate_writes_total", "Crossbar writes spent on this lane.", l),
		subEnergy: reg.FloatCounter("rapidnn_serve_substrate_energy_joules_total", "Substrate energy spent on this lane.", l),
		batchSize: make(map[int]uint64),
	}
}

func (m *Metrics) admit()  { m.admitted.Inc() }
func (m *Metrics) reject() { m.rejected.Inc() }
func (m *Metrics) cancel() { m.canceled.Inc() }
func (m *Metrics) fail()   { m.failed.Inc() }

func (m *Metrics) observeBatch(size int, stats crossbar.Stats) {
	m.batches.Inc()
	m.batchSzH.Observe(float64(size))
	m.subCycles.Add(uint64(stats.Cycles))
	m.subNORs.Add(uint64(stats.NORs))
	m.subReads.Add(uint64(stats.Reads))
	m.subWrites.Add(uint64(stats.Writes))
	m.subEnergy.Add(stats.EnergyJ)
	m.mu.Lock()
	m.batchSize[size]++
	m.hw.Cycles += stats.Cycles
	m.hw.NORs += stats.NORs
	m.hw.Reads += stats.Reads
	m.hw.Writes += stats.Writes
	m.hw.EnergyJ += stats.EnergyJ
	m.mu.Unlock()
}

func (m *Metrics) observeQueueWait(d time.Duration) { m.waitH.Observe(d.Seconds()) }

func (m *Metrics) observeDone(d time.Duration) {
	m.completed.Inc()
	m.latencyH.Observe(d.Seconds())
	m.mu.Lock()
	// The window index wraps explicitly at latWindow; the historical
	// monotonically-growing counter would overflow int on a long-lived
	// server (and briefly mis-size the window on the wrap).
	m.lat[m.latIdx] = d
	m.latIdx++
	if m.latIdx == latWindow {
		m.latIdx = 0
		m.latFull = true
	}
	m.mu.Unlock()
}

// drainEWMAAlpha blends each fresh completions/second sample into the
// running estimate: high enough to track a regime change within a few
// samples, low enough that one bursty scrape does not whipsaw Retry-After.
const drainEWMAAlpha = 0.5

// drainMinInterval is the shortest interval a rate sample may span; calls
// inside it reuse the previous estimate instead of dividing by noise.
const drainMinInterval = 100 * time.Millisecond

// DrainRate estimates this lane's current completion throughput in
// requests/second, from the completed counter sampled at call time and
// blended as an EWMA. The first call primes the estimator and returns 0
// ("unknown"), as does a lane that has not completed anything between
// samples for a while.
func (m *Metrics) DrainRate(now time.Time) float64 {
	m.drainMu.Lock()
	defer m.drainMu.Unlock()
	completed := m.completed.Value()
	if m.drainSample.IsZero() {
		m.drainSample, m.drainCompleted = now, completed
		return 0
	}
	dt := now.Sub(m.drainSample)
	if dt < drainMinInterval {
		return m.drainRate
	}
	sample := float64(completed-m.drainCompleted) / dt.Seconds()
	m.drainRate = drainEWMAAlpha*sample + (1-drainEWMAAlpha)*m.drainRate
	m.drainSample, m.drainCompleted = now, completed
	return m.drainRate
}

// Retry-After bounds: a shed client always waits at least a second (less
// would stampede a queue that is full *now*) and never more than thirty (a
// stale hint must not park clients beyond any plausible drain).
const (
	retryAfterMinSec = 1
	retryAfterMaxSec = 30
)

// RetryAfterSeconds derives the 503 Retry-After hint from the shedding
// lane's actual state: the time the current queue needs to drain at the
// observed completion rate, clamped to [retryAfterMinSec, retryAfterMaxSec].
// An unknown rate (a lane that just started) falls back to the minimum — the
// queue was deep enough to shed, but there is no evidence it drains slowly.
func RetryAfterSeconds(depth int, drainPerSec float64) int {
	if depth <= 0 || drainPerSec <= 0 {
		return retryAfterMinSec
	}
	secs := int(math.Ceil(float64(depth) / drainPerSec))
	if secs < retryAfterMinSec {
		return retryAfterMinSec
	}
	if secs > retryAfterMaxSec {
		return retryAfterMaxSec
	}
	return secs
}

// LatencyQuantiles is the latency block of a lane's /stats entry, in
// milliseconds over the sliding window.
type LatencyQuantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// SubstrateStats mirrors crossbar.Stats with JSON tags for /stats.
type SubstrateStats struct {
	Cycles  int64   `json:"cycles"`
	NORs    int64   `json:"nors"`
	Reads   int64   `json:"reads"`
	Writes  int64   `json:"writes"`
	EnergyJ float64 `json:"energy_j"`
}

// LaneStats is the JSON shape of one serving lane in the /stats payload.
type LaneStats struct {
	Admitted   uint64            `json:"admitted"`
	Completed  uint64            `json:"completed"`
	Failed     uint64            `json:"failed"`
	Rejected   uint64            `json:"rejected"`
	Canceled   uint64            `json:"canceled"`
	Batches    uint64            `json:"batches"`
	MeanBatch  float64           `json:"mean_batch"`
	BatchSizes map[string]uint64 `json:"batch_sizes"`
	QueueDepth int               `json:"queue_depth"`
	LatencyMS  LatencyQuantiles  `json:"latency_ms"`
	Substrate  SubstrateStats    `json:"substrate"`
}

// Snapshot returns a consistent copy of the counters. queueDepth is sampled
// by the caller (the gauge lives on the batcher, not here).
func (m *Metrics) Snapshot(queueDepth int) LaneStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := LaneStats{
		Admitted:   m.admitted.Value(),
		Completed:  m.completed.Value(),
		Failed:     m.failed.Value(),
		Rejected:   m.rejected.Value(),
		Canceled:   m.canceled.Value(),
		Batches:    m.batches.Value(),
		BatchSizes: make(map[string]uint64, len(m.batchSize)),
		QueueDepth: queueDepth,
		Substrate: SubstrateStats{
			Cycles:  m.hw.Cycles,
			NORs:    m.hw.NORs,
			Reads:   m.hw.Reads,
			Writes:  m.hw.Writes,
			EnergyJ: m.hw.EnergyJ,
		},
	}
	var sized uint64
	for size, n := range m.batchSize {
		ls.BatchSizes[strconv.Itoa(size)] = n
		sized += uint64(size) * n
	}
	if ls.Batches > 0 {
		ls.MeanBatch = float64(sized) / float64(ls.Batches)
	}
	n := m.latIdx
	if m.latFull {
		n = latWindow
	}
	if n > 0 {
		window := make([]time.Duration, n)
		copy(window, m.lat[:n])
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		ls.LatencyMS = LatencyQuantiles{
			P50: ms(quantile(window, 0.50)),
			P90: ms(quantile(window, 0.90)),
			P99: ms(quantile(window, 0.99)),
			Max: ms(window[n-1]),
		}
	}
	return ls
}

// Substrate returns the accumulated substrate activity.
func (m *Metrics) Substrate() crossbar.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hw
}

// quantile returns the nearest-rank quantile of a sorted window.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
