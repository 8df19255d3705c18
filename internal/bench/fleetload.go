package bench

import "time"

// Multi-target load generation for the fleet evaluation: the single-target
// drivers in loadgen.go hold one fn; these spread an open-loop arrival
// stream across several targets and/or slice the completions into classes
// (per tenant, per replica, per status) so a test can pin "tenant A's shed
// did not move tenant B's p99" with one run.

// FanOut returns a driver that routes request i to targets[i%len(targets)] —
// the simplest multi-target form, used to offer identical load to several
// replicas side by side. It panics on an empty target list.
func FanOut(targets ...func(i int) error) func(i int) error {
	if len(targets) == 0 {
		panic("bench: FanOut needs at least one target")
	}
	return func(i int) error { return targets[i%len(targets)](i) }
}

// OpenLoopTagged is OpenLoop with the completions partitioned into classes:
// requests arrive at the fixed interval regardless of completions, classOf
// assigns each request index a class (a tenant name, a replica URL), and the
// result is one LoadReport per class over exactly that class's requests.
// Latency and error semantics match OpenLoop: each request is timed from its
// scheduled arrival, and fn's error marks it failed but its latency still
// counts.
func OpenLoopTagged(interval time.Duration, total int, classOf func(i int) string, fn func(i int) error) map[string]LoadReport {
	lats, failed, elapsed := openLoop(interval, total, fn)
	byClass := make(map[string][]time.Duration)
	errsByClass := make(map[string]int)
	for i := 0; i < total; i++ {
		c := classOf(i)
		byClass[c] = append(byClass[c], lats[i])
		if failed[i] {
			errsByClass[c]++
		}
	}
	out := make(map[string]LoadReport, len(byClass))
	for c, l := range byClass {
		out[c] = report(l, errsByClass[c], elapsed)
	}
	return out
}
