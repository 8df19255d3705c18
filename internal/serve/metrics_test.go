package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/crossbar"
	"repro/internal/obs"
)

// The sliding latency window must wrap cleanly: after more than latWindow
// completions the quantiles cover exactly the most recent latWindow samples
// and the completed counter keeps the full total.
func TestSnapshotLatencyWindowWraparound(t *testing.T) {
	m := NewMetrics()
	// First fill the window with slow samples, then wrap it completely with
	// fast ones: post-wrap quantiles must see only the fast samples.
	for i := 0; i < latWindow; i++ {
		m.observeDone(time.Second)
	}
	for i := 0; i < latWindow; i++ {
		m.observeDone(time.Millisecond)
	}
	st := m.Snapshot(0)
	if st.Completed != 2*latWindow {
		t.Fatalf("completed = %d, want %d", st.Completed, 2*latWindow)
	}
	if st.LatencyMS.Max != 1 {
		t.Fatalf("post-wrap max = %vms, want 1ms (window still holds pre-wrap samples)", st.LatencyMS.Max)
	}
	if st.LatencyMS.P50 != 1 {
		t.Fatalf("post-wrap p50 = %vms, want 1ms", st.LatencyMS.P50)
	}

	// A partial second wrap mixes old and new: latWindow/2 fresh 4ms samples
	// plus latWindow/2 surviving 1ms ones.
	for i := 0; i < latWindow/2; i++ {
		m.observeDone(4 * time.Millisecond)
	}
	st = m.Snapshot(0)
	if st.LatencyMS.P50 != 1 || st.LatencyMS.Max != 4 {
		t.Fatalf("mixed window p50=%v max=%v, want 1, 4", st.LatencyMS.P50, st.LatencyMS.Max)
	}
}

// Quantile edge cases: a single sample answers every quantile, and extreme
// quantiles on tiny windows clamp to valid indices.
func TestQuantileEdgeCases(t *testing.T) {
	one := []time.Duration{7 * time.Millisecond}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := quantile(one, q); got != 7*time.Millisecond {
			t.Fatalf("quantile(n=1, q=%v) = %v, want 7ms", q, got)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("quantile(empty) = %v, want 0", got)
	}
	two := []time.Duration{1 * time.Millisecond, 9 * time.Millisecond}
	if got := quantile(two, 0.99); got != 9*time.Millisecond {
		t.Fatalf("quantile(n=2, q=0.99) = %v, want 9ms", got)
	}
	if got := quantile(two, 0.01); got != 1*time.Millisecond {
		t.Fatalf("quantile(n=2, q=0.01) = %v, want 1ms", got)
	}
}

// A lane's instruments registered via NewMetricsIn must round-trip through
// the registry's Prometheus exposition, substrate counters included.
func TestMetricsLaneExposition(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetricsIn(reg, "mnist/hardware")
	m.admit()
	m.observeBatch(3, crossbar.Stats{Cycles: 100, NORs: 400, Reads: 7, Writes: 2, EnergyJ: 0.25})
	m.observeQueueWait(300 * time.Microsecond)
	m.observeDone(2 * time.Millisecond)
	m.cancel()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`rapidnn_serve_admitted_total{lane="mnist/hardware"} 1`,
		`rapidnn_serve_requests_total{lane="mnist/hardware",outcome="completed"} 1`,
		`rapidnn_serve_requests_total{lane="mnist/hardware",outcome="canceled"} 1`,
		`rapidnn_serve_batches_total{lane="mnist/hardware"} 1`,
		`rapidnn_serve_substrate_cycles_total{lane="mnist/hardware"} 100`,
		`rapidnn_serve_substrate_nors_total{lane="mnist/hardware"} 400`,
		`rapidnn_serve_substrate_energy_joules_total{lane="mnist/hardware"} 0.25`,
		`rapidnn_serve_batch_size_bucket{lane="mnist/hardware",le="4"} 1`,
		`rapidnn_serve_queue_wait_seconds_count{lane="mnist/hardware"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\nfull output:\n%s", want, out)
		}
	}
}

// The dispatch path's bookkeeping must stay allocation-free — it sits inside
// the zero-alloc round trip guarded by BenchmarkServeRoundTrip.
func TestMetricsObservationsDoNotAllocate(t *testing.T) {
	m := NewMetrics()
	stats := crossbar.Stats{Cycles: 10, NORs: 40}
	// Pre-touch the batch-size map entry: the first insert for a given size
	// legitimately allocates a bucket; steady state must not.
	m.observeBatch(8, stats)
	if allocs := testing.AllocsPerRun(200, func() {
		m.admit()
		m.observeQueueWait(20 * time.Microsecond)
		m.observeBatch(8, stats)
		m.observeDone(time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("metrics observations allocate %v per run, want 0", allocs)
	}
}
