package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// fingerprint identifies where and from what a result was measured.
// Results are comparable only between equal host fields (CPU, nproc,
// GOMAXPROCS, Go version); commit and seed say what was run.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func (f fingerprint) host() string {
	return fmt.Sprintf("%s | nproc %d | GOMAXPROCS %d | %s", f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion)
}

func hostFingerprint(seed int64) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the go tool stamped into the binary; a build
// outside a git checkout has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// record is the "record" line printed before each result: the result with
// the fingerprint it was measured under.
type record struct {
	Host     fingerprint `json:"host"`
	Workload string      `json:"workload"`
	Trace    int         `json:"trace"`
	Result   result      `json:"result"`
}

// compareFiles reads the record lines of two saved outputs and prints, per
// workload and metric, the median of each side and their ratio. Results
// from different hosts are refused: the difference would measure the
// hosts, not the code.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	olds, err := readRecords(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	news, err := readRecords(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	hosts := map[string]bool{}
	for _, r := range append(append([]record(nil), olds...), news...) {
		hosts[r.Host.host()] = true
	}
	if len(hosts) != 1 {
		fmt.Fprintln(stderr, "perfbench: refusing to compare results measured on different hosts:")
		for h := range hosts {
			fmt.Fprintf(stderr, "  %s\n", h)
		}
		return 3
	}
	type key struct{ workload, metric string }
	vals := func(recs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range recs {
			for n, m := range r.Result.Metrics {
				k := key{r.Workload, n}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	a, b := vals(olds), vals(news)
	var keys []key
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(stdout, "%-16s %-34s %14s %14s %8s\n", "workload", "metric", "old median", "new median", "new/old")
	for _, k := range keys {
		ma, mb := median(a[k]), median(b[k])
		fmt.Fprintf(stdout, "%-16s %-34s %14.4f %14.4f %8.4f\n", k.workload, k.metric, ma, mb, ratio(mb, ma))
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "record ")
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no record lines", path)
	}
	return out, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
