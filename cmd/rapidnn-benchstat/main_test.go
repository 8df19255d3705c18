package main

import (
	"strings"
	"testing"
)

// A baseline entry the run did not produce is reported as "not run" — not
// skipped silently, and not counted as checked or failed — while the
// pass/fail rule for the entries it did produce is unchanged.
func TestCheckReportsEntriesNotRun(t *testing.T) {
	base := Baseline{Benchmarks: []Entry{
		{Name: "NeuronFire", After: Metrics{NsPerOp: 1000}},
		{Name: "HardwareInferBatch/workers=1#01", After: Metrics{NsPerOp: 2000}},
		{Name: "SearchAllocs", After: Metrics{NsPerOp: 100}},
	}}
	cur, _, err := parseBench(strings.NewReader(
		"BenchmarkNeuronFire-2   1000   1050 ns/op   0 B/op   0 allocs/op\n" +
			"BenchmarkSearchAllocs-2 1000    200 ns/op   0 B/op   0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	checked, failed := check(&out, base, cur, 1.1)
	if checked != 2 || failed != 1 {
		t.Fatalf("checked %d, failed %d; want 2 checked, 1 failed (SearchAllocs at 2x)", checked, failed)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want one line per baseline entry, got:\n%s", out.String())
	}
	for i, want := range []string{"ok", "not run", "FAIL"} {
		if !strings.Contains(lines[i], want) {
			t.Fatalf("line %d %q does not report %q", i, lines[i], want)
		}
	}
	if !strings.HasPrefix(lines[1], "HardwareInferBatch/workers=1#01") {
		t.Fatalf("not-run line does not name the entry: %q", lines[1])
	}
}
