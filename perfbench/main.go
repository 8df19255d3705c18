// Command perfbench is the repository's end-to-end benchmark. One process
// drives the public entry points from outside — fleet.Router over loopback
// HTTP to two serve.Server replicas on the software path, and
// composer.OpenFlat / rna.BuildHardwareNetwork cold start of the functional
// hardware — checks every output against an in-process reference, and
// prints its metrics by name and unit. See README.md in this directory.
//
//	bash perfbench/run.sh --workload fleet-sw-single --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh --compare old.txt new.txt
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one input set the benchmark runs.
type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"fleet-sw-single", runFleet},
	{"bulk-conv", runBulk},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed  int64
	dur   time.Duration
	trace bool
	dir   string    // scratch directory for artifacts, removed afterwards
	log   io.Writer // human-readable progress
}

// outcome is a workload's result: how many requests (or rows) it sent,
// how many failed, and its metrics.
type outcome struct {
	attempted, failed int
	m                 metrics
}

// errMismatch marks an output that disagrees with its reference. The run
// then exits non-zero and prints no metrics.
var errMismatch = errors.New("output mismatch")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// endToEnd are the metrics of an untraced run; perLayer those of a traced
// run. Every workload reports every name; a layer a workload does not pass
// through reports 0.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"rows_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = [][2]string{
	{"client.lat_p99_ms", "ms"},
	{"client.lag_p99_ms", "ms"},
	{"client.self_ms_mean", "ms"},
	{"client.sent", "count"},
	{"client.failed", "count"},
	{"fleet.self_ms_mean", "ms"},
	{"fleet.attempts_per_req", "ratio"},
	{"fleet.retries", "count"},
	{"fleet.hedges", "count"},
	{"fleet.replica_skew", "ratio"},
	{"serve.handler_ms_mean", "ms"},
	{"serve.compute_ms_mean", "ms"},
	{"serve.wait_ms_mean", "ms"},
	{"serve.rows_per_batch", "rows"},
	{"serve.batch_fill", "ratio"},
	{"serve.rejected", "count"},
	{"serve.canceled", "count"},
	{"composer.open_ms", "ms"},
	{"composer.sw_us_per_row", "us"},
	{"rna.build_ms", "ms"},
	{"rna.us_per_row", "us"},
	{"rna.layer.cv1.self_us_per_row", "us"},
	{"rna.layer.pl1.self_us_per_row", "us"},
	{"rna.layer.cv2.self_us_per_row", "us"},
	{"rna.layer.cv3.self_us_per_row", "us"},
	{"rna.layer.fc1.self_us_per_row", "us"},
	{"rna.layer.out.self_us_per_row", "us"},
	{"rna.cam_hit_ratio", "ratio"},
	{"rna.cycles_per_inf", "cycles"},
	{"rna.nors_per_inf", "count"},
	{"rna.reads_per_inf", "count"},
	{"rna.writes_per_inf", "count"},
	{"rna.energy_nj_per_inf", "nJ"},
	{"accel.cycles_per_inf", "cycles"},
	{"accel.energy_nj_per_inf", "nJ"},
	{"accel.func_over_analytic_cycles", "ratio"},
	{"accel.func_over_analytic_energy", "ratio"},
	{"compile.ii_cycles", "cycles"},
	{"compile.host_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.dropped", "count"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fleet-sw-single or bulk-conv")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 50, "measured time of one run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	compare := fs.Bool("compare", false, "compare two saved outputs of this command: --compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare takes two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fp := hostFingerprint(*seed)
	fmt.Fprintf(stderr, "perfbench: %s seed %d, %.0fs, trace %d on %s (nproc %d, GOMAXPROCS %d, %s, commit %s)\n",
		wl.name, *seed, *seconds, *trace, fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Commit)
	out, err := wl.run(runConfig{
		seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, dir: dir, log: stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: metrics{}}
	if *trace == 1 {
		for _, nu := range perLayer {
			v := out.m[nu[0]]
			res.Metrics.set(nu[0], v.Value, nu[1])
		}
	} else {
		for _, nu := range endToEnd {
			v, ok := out.m[nu[0]]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", wl.name, nu[0])
				return 1
			}
			res.Metrics.set(nu[0], v.Value, nu[1])
		}
	}
	printTable(stderr, out, res)
	rec, err := json.Marshal(record{Host: fp, Workload: wl.name, Trace: *trace, Result: res})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n%s\n", rec, line)
	return 0
}

// buildDir is where run.sh builds and where runs keep their scratch files;
// it is ignored by git.
const buildDir = ".bench_build"

// setupRepeats is how many times a traced run times each cold-start step
// (OpenFlat, BuildHardwareNetwork, Compile) to report their medians.
const setupRepeats = 15

// setupsPerCycle is how many extra set-ups a timed run makes at the start
// of each of its cycles, beside the one it measures. One set-up takes
// 5–25 ms and moves with the host's speed from one second to the next, so
// setup_s is the median of set-ups spread over the whole run, like every
// other metric, not of a burst at its start.
const setupsPerCycle = 4

// timeSetup times one fresh set-up and appends its duration to setups.
// It first collects garbage, so the garbage of the set-up before is
// neither collected on its clock nor added to the peak resident set.
func timeSetup(setups *[]time.Duration, setup func() error) error {
	runtime.GC()
	start := time.Now()
	if err := setup(); err != nil {
		return err
	}
	*setups = append(*setups, time.Since(start))
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func printTable(w io.Writer, out *outcome, res result) {
	fmt.Fprintf(w, "sent %d, succeeded %d, failed %d\n", out.attempted, out.attempted-out.failed, out.failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func nproc() int { return runtime.NumCPU() }
