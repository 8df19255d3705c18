package main

import (
	"fmt"
	"time"

	"repro/internal/composer"
	"repro/internal/crossbar"
	"repro/internal/obs"
	"repro/internal/rna"
	"repro/internal/tensor"
)

const (
	// bulkScale is the model.ConvNet width scale of bulk-conv.
	bulkScale = 0.125
	// bulkRows is the stated batch size of bulk-conv.
	bulkRows = 32
	// bulkBatches is how many distinct batches a run cycles through, and
	// singleInputs how many distinct one-row inputs; each has a Workers=1
	// reference computed at set-up.
	bulkBatches  = 4
	singleInputs = 64
	// singleShare is the part of a run's time spent on one-row calls; the
	// rest goes to back-to-back batches. The run alternates the two phases
	// cycles times.
	singleShare = 0.25
)

// bulkInput is one fixed batch and its reference answer.
type bulkInput struct {
	x     *tensor.Tensor
	preds []int
	stats crossbar.Stats
}

// openBulk is bulk-conv's cold start: map the artifact and lower it to
// functional hardware with one worker per core.
func openBulk(path string) (*composer.Composed, *rna.HardwareNetwork, error) {
	c, err := composer.OpenFlat(path)
	if err != nil {
		return nil, nil, err
	}
	hw, err := lower(c, nproc())
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, hw, nil
}

// bulkPass is one measured pass: the latencies of one-row calls, and the
// rows classified by full batches in the time they took.
type bulkPass struct {
	single    []time.Duration
	rows      int
	batchTime time.Duration
}

func (p *bulkPass) rowsPerSec() float64 { return float64(p.rows) / p.batchTime.Seconds() }

// measureBulk alternates back-to-back batches with back-to-back one-row
// calls for dur, cycles times each, and checks every call's predictions
// and Stats against its reference. After one warm-up call of each kind it
// calls atStart (if set) and starts timing. Each cycle starts with a call
// of between (if set), outside the phases' clocks.
func measureBulk(hw *rna.HardwareNetwork, batches, singles []bulkInput, dur time.Duration, atStart func(), between func() error) (*bulkPass, error) {
	check := func(in []bulkInput, i int) (time.Duration, error) {
		b := in[i%len(in)]
		start := time.Now()
		preds, st, err := hw.InferBatchStats(b.x)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		for k := range preds {
			if preds[k] != b.preds[k] {
				return 0, fmt.Errorf("%w: input %d row %d: %d, reference %d", errMismatch, i, k, preds[k], b.preds[k])
			}
		}
		if st != b.stats {
			return 0, fmt.Errorf("%w: input %d Stats %+v, reference %+v", errMismatch, i, st, b.stats)
		}
		return d, nil
	}
	for _, in := range [][]bulkInput{batches, singles} { // warm-up
		if _, err := check(in, 0); err != nil {
			return nil, err
		}
	}
	if atStart != nil {
		atStart()
	}
	p := &bulkPass{}
	single := time.Duration(singleShare * float64(dur) / cycles)
	batch := dur/cycles - single
	nb, ns := 0, 0
	for k := 0; k < cycles; k++ {
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		for ; time.Since(start) < batch; nb++ {
			if _, err := check(batches, nb); err != nil {
				return nil, err
			}
			p.rows += bulkRows
		}
		p.batchTime += time.Since(start)
		start = time.Now()
		for ; time.Since(start) < single; ns++ {
			d, err := check(singles, ns)
			if err != nil {
				return nil, err
			}
			p.single = append(p.single, d)
		}
	}
	return p, nil
}

// bulkInputs draws n inputs of rows rows each from seed and computes their
// Workers=1 references; first offsets their seeds from other inputs'.
func bulkInputs(ref *rna.HardwareNetwork, n, rows, width int, seed int64, first int) ([]bulkInput, error) {
	in := make([]bulkInput, n)
	for b := range in {
		in[b].x = randomRows(rows, width, int64(mix(seed, first+b, 0)))
		var err error
		if in[b].preds, in[b].stats, err = ref.InferBatchStats(in[b].x); err != nil {
			return nil, fmt.Errorf("reference input %d: %w", first+b, err)
		}
	}
	return in, nil
}

func runBulk(cfg runConfig) (*outcome, error) {
	c := syntheticComposed(bulkScale, true)
	path, err := saveArtifact(c, cfg.dir)
	if err != nil {
		return nil, err
	}
	ref, err := lower(c, 1)
	if err != nil {
		return nil, err
	}
	batches, err := bulkInputs(ref, bulkBatches, bulkRows, c.Net.InSize(), cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	singles, err := bulkInputs(ref, singleInputs, 1, c.Net.InSize(), cfg.seed, bulkBatches)
	if err != nil {
		return nil, err
	}

	if !cfg.trace {
		var setups []time.Duration
		var oc *composer.Composed
		var hw *rna.HardwareNetwork
		if err := timeSetup(&setups, func() (err error) { oc, hw, err = openBulk(path); return err }); err != nil {
			return nil, err
		}
		defer oc.Close()
		// The extra set-ups come up beside the measured network, idle
		// between phases, and close again at once.
		p, err := measureBulk(hw, batches, singles, cfg.dur, nil, func() error {
			for k := 0; k < setupsPerCycle; k++ {
				var extra *composer.Composed
				if err := timeSetup(&setups, func() (err error) { extra, _, err = openBulk(path); return err }); err != nil {
					return err
				}
				extra.Close()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		lat := quantiles(p.single, 0.5, 0.99)
		m := metrics{}
		m.set("setup_s", quantiles(setups, 0.5)[0].Seconds(), "s")
		m.set("lat_p50_ms", ms(lat[0]), "ms")
		m.set("rows_per_s", p.rowsPerSec(), "1/s")
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m.set("peak_rss_mb", rss, "MB")
		fmt.Fprintf(cfg.log, "%d batches of %d rows in %v; %d one-row calls, p99 %.3f ms\n",
			p.rows/bulkRows, bulkRows, p.batchTime.Round(time.Millisecond), len(p.single), ms(lat[1]))
		return &outcome{attempted: p.rows + len(p.single), m: m}, nil
	}

	// Traced run: an untraced pass, then a pass with the network's own
	// per-layer tracer on, half the time each.
	oc, hw, err := openBulk(path)
	if err != nil {
		return nil, err
	}
	plain, err := measureBulk(hw, batches, singles, cfg.dur/2, nil, nil)
	oc.Close()
	if err != nil {
		return nil, err
	}
	oc, hw, err = openBulk(path)
	if err != nil {
		return nil, err
	}
	defer oc.Close()
	traceEpoch := time.Now()
	tr := obs.NewTracer(1 << 18)
	hw.Trace = tr
	var sinceUS int64
	traced, err := measureBulk(hw, batches, singles, cfg.dur/2, func() { sinceUS = time.Since(traceEpoch).Microseconds() }, nil)
	if err != nil {
		return nil, err
	}
	evs, err := readTracer(tr)
	if err != nil {
		return nil, err
	}
	timed := func(name string) func(traceEvent) bool {
		return func(e traceEvent) bool { return e.track == "rna" && e.name == name && e.startUS >= sinceUS }
	}
	m := metrics{}
	m.set("client.lat_p99_ms", ms(quantiles(plain.single, 0.99)[0]), "ms")
	m.set("client.sent", float64(traced.rows+len(traced.single)), "count")
	// Every row the traced pass classified, in batches and one-row calls.
	_, batchUS, rows := sumEvents(evs, timed("infer_batch"))
	m.set("rna.us_per_row", ratio(float64(batchUS), float64(rows)), "us")
	for _, l := range c.Net.Layers {
		name := l.Name()
		n, us, _ := sumEvents(evs, timed(name))
		if n > 0 {
			// Layer spans have no children: self time is the whole span.
			m.set("rna.layer."+name+".self_us_per_row", ratio(float64(us), float64(rows)), "us")
		}
	}
	m.set("trace.dropped", float64(tr.Dropped()), "count")
	m.set("trace.overhead_pct", (ratio(plain.rowsPerSec(), traced.rowsPerSec())-1)*100, "%")
	if err := modelSide(c, path, m); err != nil {
		return nil, err
	}
	n := plain.rows + len(plain.single) + traced.rows + len(traced.single)
	return &outcome{attempted: n, m: m}, nil
}
