// Command rapidnn-benchstat is the benchmark-regression harness around the
// hot-path microbenchmarks: it parses `go test -bench -benchmem` output,
// merges a before/after pair into the committed baseline JSON, and checks a
// fresh run against that baseline so a performance regression fails loudly
// instead of rotting silently.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | rapidnn-benchstat -json
//	rapidnn-benchstat -before before.txt -after after.txt -out BENCH_PR4.json
//	go test -run '^$' -bench . -benchmem ./... | rapidnn-benchstat -check BENCH_PR4.json
//
// The check compares against the baseline's "after" numbers: ns/op may
// drift up to -tolerance (wall time is noisy), while allocs/op gets only a
// token slack — the zero-allocation guarantees are the point of the
// baseline, and they are deterministic.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measured steady-state cost.
type Metrics struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Entry pairs a benchmark's before/after measurements in the baseline file.
// Before may be absent for benchmarks that have no pre-change counterpart.
type Entry struct {
	Name   string   `json:"name"`
	Before *Metrics `json:"before,omitempty"`
	After  Metrics  `json:"after"`
	// Speedup and AllocReduction summarize before/after; 0 when no before.
	Speedup        float64 `json:"ns_speedup,omitempty"`
	AllocReduction float64 `json:"alloc_reduction,omitempty"`
}

// Baseline is the committed BENCH_PR4.json layout.
type Baseline struct {
	Note       string  `json:"note"`
	Benchmarks []Entry `json:"benchmarks"`
}

// gomaxprocsSuffix strips the trailing "-N" processor-count suffix the
// testing package appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench -benchmem` output and returns the metrics
// keyed by benchmark name (GOMAXPROCS suffix stripped, "Benchmark" prefix
// kept off). Repeated names keep the last occurrence.
func parseBench(r io.Reader) (map[string]Metrics, []string, error) {
	out := map[string]Metrics{}
	var order []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		m := Metrics{Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		prev, seen := out[name]
		if !seen {
			order = append(order, name)
			out[name] = m
		} else if m.NsPerOp < prev.NsPerOp {
			// Repeated samples of one benchmark (go test -count N) keep the
			// fastest run: scheduler and thermal noise only ever add time, so
			// min ns/op is the robust "did the code get slower" statistic.
			out[name] = m
		}
	}
	return out, order, sc.Err()
}

func parseBenchFile(path string) (map[string]Metrics, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return parseBench(f)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rapidnn-benchstat: %v\n", err)
	os.Exit(1)
}

func main() {
	jsonOnly := flag.Bool("json", false, "parse go test -bench output on stdin and print it as JSON")
	before := flag.String("before", "", "bench output captured before the change")
	after := flag.String("after", "", "bench output captured after the change")
	out := flag.String("out", "", "write the merged baseline JSON here (default stdout)")
	note := flag.String("note", "", "free-form provenance note stored in the baseline")
	check := flag.String("check", "", "baseline JSON to compare the bench output on stdin against")
	tolerance := flag.Float64("tolerance", 1.5, "allowed ns/op ratio over the baseline in -check mode")
	flag.Parse()

	switch {
	case *jsonOnly:
		cur, order, err := parseBench(os.Stdin)
		if err != nil {
			fatal(err)
		}
		var entries []Entry
		for _, name := range order {
			entries = append(entries, Entry{Name: name, After: cur[name]})
		}
		emit(Baseline{Benchmarks: entries}, "")
	case *check != "":
		runCheck(*check, *tolerance)
	case *after != "":
		merge(*before, *after, *out, *note)
	default:
		fmt.Fprintln(os.Stderr, "rapidnn-benchstat: need -json, -check FILE, or -before/-after FILES (see -h)")
		os.Exit(2)
	}
}

// merge builds the committed baseline from a before/after capture pair.
func merge(beforePath, afterPath, outPath, note string) {
	aft, order, err := parseBenchFile(afterPath)
	if err != nil {
		fatal(err)
	}
	bef := map[string]Metrics{}
	if beforePath != "" {
		if bef, _, err = parseBenchFile(beforePath); err != nil {
			fatal(err)
		}
	}
	var entries []Entry
	for _, name := range order {
		e := Entry{Name: name, After: aft[name]}
		if b, ok := bef[name]; ok {
			bCopy := b
			e.Before = &bCopy
			if e.After.NsPerOp > 0 {
				e.Speedup = round2(b.NsPerOp / e.After.NsPerOp)
			}
			switch {
			case e.After.AllocsPerOp > 0:
				e.AllocReduction = round2(b.AllocsPerOp / e.After.AllocsPerOp)
			case b.AllocsPerOp > 0:
				// Down to zero: the reduction is unbounded; report the count
				// that vanished instead of an infinity JSON cannot carry.
				e.AllocReduction = b.AllocsPerOp
			}
		}
		entries = append(entries, e)
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	emit(Baseline{Note: note, Benchmarks: entries}, outPath)
}

// runCheck compares the bench output on stdin against a committed baseline's
// "after" numbers and exits non-zero on any regression.
func runCheck(baselinePath string, tolerance float64) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", baselinePath, err))
	}
	cur, _, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	checked, failed := check(os.Stdout, base, cur, tolerance)
	if checked == 0 {
		fatal(fmt.Errorf("no benchmark on stdin matched the %d baseline entries", len(base.Benchmarks)))
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d of %d benchmarks regressed", failed, checked))
	}
	fmt.Printf("all %d benchmarks within tolerance\n", checked)
}

// check prints one line per baseline entry — its fresh numbers and status,
// or "not run" when the run on stdin did not produce it (a run may exercise
// a subset of the baseline) — and returns how many entries the run covered
// and how many of those regressed.
func check(w io.Writer, base Baseline, cur map[string]Metrics, tolerance float64) (checked, failed int) {
	for _, e := range base.Benchmarks {
		got, ok := cur[e.Name]
		if !ok {
			fmt.Fprintf(w, "%-40s not run\n", e.Name)
			continue
		}
		checked++
		status := "ok"
		if e.After.NsPerOp > 0 && got.NsPerOp > e.After.NsPerOp*tolerance {
			status = fmt.Sprintf("FAIL: %.0f ns/op vs baseline %.0f (tolerance %.2fx)",
				got.NsPerOp, e.After.NsPerOp, tolerance)
		}
		// Allocation counts are deterministic modulo pool churn under memory
		// pressure; allow a token absolute slack, never a proportional one.
		if got.AllocsPerOp > e.After.AllocsPerOp+2 {
			status = fmt.Sprintf("FAIL: %.0f allocs/op vs baseline %.0f",
				got.AllocsPerOp, e.After.AllocsPerOp)
		}
		if strings.HasPrefix(status, "FAIL") {
			failed++
		}
		fmt.Fprintf(w, "%-40s %12.0f ns/op %8.0f allocs/op   %s\n", e.Name, got.NsPerOp, got.AllocsPerOp, status)
	}
	return checked, failed
}

func emit(b Baseline, outPath string) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if outPath == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", outPath, len(b.Benchmarks))
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}
