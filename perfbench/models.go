package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/accel"
	"repro/internal/accel/compile"
	"repro/internal/composer"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rna"
	"repro/internal/tensor"
)

// Model shapes: the MNIST and CIFAR-10 stand-ins of internal/dataset
// (784 features and 3×32×32 images, 10 classes each). The benchmark never
// trains; like rapidnn-serve -demo it serves untrained weights with
// synthetic codebooks, whose answers are arbitrary but deterministic.
const (
	mnistFeatures = 784
	classes       = 10
)

// syntheticComposed builds a composed model the way rapidnn-serve -demo
// does: SyntheticPlans with 16 weight levels, 16 input levels and 32
// activation rows.
func syntheticComposed(scale float64, conv bool) *composer.Composed {
	net := model.FCNet("demo-MNIST", mnistFeatures, classes, scale, 1)
	if conv {
		net = model.ConvNet("CIFAR-10", 3, 32, 32, classes, scale, 1)
	}
	return &composer.Composed{Net: net, Plans: composer.SyntheticPlans(net, 16, 16, 32)}
}

// saveArtifact writes c as a RAPIDNN2 artifact into dir.
func saveArtifact(c *composer.Composed, dir string) (string, error) {
	path := filepath.Join(dir, "model.rapidnn")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := c.SaveFlat(f); err != nil {
		f.Close()
		return "", fmt.Errorf("saving artifact: %w", err)
	}
	return path, f.Close()
}

// randomRows draws n rows of width features, uniform in [0, 1), from seed.
func randomRows(n, width int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n*width)
	for i := range data {
		data[i] = rng.Float32()
	}
	return tensor.FromSlice(data, n, width)
}

// lower lowers c to functional hardware running workers goroutines per
// batch (0 = GOMAXPROCS). With workers = 1 it is the serial reference every
// hardware-path output is checked against.
func lower(c *composer.Composed, workers int) (*rna.HardwareNetwork, error) {
	re := composer.NewReinterpreted(c.Net, c.Plans)
	hw, err := rna.BuildHardwareNetwork(re.Net(), c.Plans, device.Default())
	if err != nil {
		return nil, fmt.Errorf("lowering to hardware: %w", err)
	}
	hw.Workers = workers
	return hw, nil
}

// canonicalSeed fixes the input batch the modeled counts are taken on. It
// does not depend on --seed, so those counts repeat bit for bit on every run.
const canonicalSeed = 0x5eed

// canonicalRows is the size of that batch.
const canonicalRows = 32

// modelSide records the two hardware models side by side for one composed
// model: the functional executor's counts per inference over the canonical
// batch next to the analytic accel/compile figures, plus the host time of
// the set-up steps the benchmark can call on their own.
func modelSide(c *composer.Composed, path string, m metrics) error {
	ref, err := lower(c, 1)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	ref.Instrument(reg)
	x := randomRows(canonicalRows, c.Net.InSize(), canonicalSeed)
	_, st, err := ref.InferBatchStats(x)
	if err != nil {
		return fmt.Errorf("canonical batch: %w", err)
	}
	per := func(v float64) float64 { return v / canonicalRows }
	m.set("rna.cycles_per_inf", per(float64(st.Cycles)), "cycles")
	m.set("rna.nors_per_inf", per(float64(st.NORs)), "count")
	m.set("rna.reads_per_inf", per(float64(st.Reads)), "count")
	m.set("rna.writes_per_inf", per(float64(st.Writes)), "count")
	m.set("rna.energy_nj_per_inf", per(st.EnergyJ*1e9), "nJ")
	hits := reg.Counter("rapidnn_rna_cam_cache_hits_total", "").Value()
	misses := reg.Counter("rapidnn_rna_cam_cache_misses_total", "").Value()
	m.set("rna.cam_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")

	rep, err := accel.Simulate(c.Net.Name, c.Plans, c.Net.MACs(), accel.DefaultConfig())
	if err != nil {
		return fmt.Errorf("analytic model: %w", err)
	}
	m.set("accel.cycles_per_inf", float64(rep.LatencyCycles), "cycles")
	m.set("accel.energy_nj_per_inf", rep.EnergyPerInputJ*1e9, "nJ")
	m.set("accel.func_over_analytic_cycles", ratio(per(float64(st.Cycles)), float64(rep.LatencyCycles)), "ratio")
	m.set("accel.func_over_analytic_energy", ratio(per(st.EnergyJ), rep.EnergyPerInputJ), "ratio")

	var compileTimes, openTimes, buildTimes []time.Duration
	var sched *compile.Schedule
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		sched, err = compile.Compile(c.Net.Name, c.Plans, accel.DefaultConfig(), compile.Options{Mode: compile.Throughput})
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		compileTimes = append(compileTimes, time.Since(start))

		open, build, err := timeColdStart(path)
		if err != nil {
			return err
		}
		openTimes = append(openTimes, open)
		buildTimes = append(buildTimes, build)
	}
	m.set("compile.ii_cycles", float64(sched.Compiled.II), "cycles")
	m.set("compile.host_ms", ms(quantiles(compileTimes, 0.5)[0]), "ms")
	m.set("composer.open_ms", ms(quantiles(openTimes, 0.5)[0]), "ms")
	m.set("rna.build_ms", ms(quantiles(buildTimes, 0.5)[0]), "ms")
	return nil
}

// timeColdStart opens the artifact and lowers it to hardware once, timing
// composer.OpenFlat and rna.BuildHardwareNetwork separately.
func timeColdStart(path string) (open, build time.Duration, err error) {
	start := time.Now()
	c, err := composer.OpenFlat(path)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	open = time.Since(start)
	start = time.Now()
	if _, err := lower(c, 0); err != nil {
		return 0, 0, err
	}
	return open, time.Since(start), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
