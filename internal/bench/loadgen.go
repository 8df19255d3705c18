package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file is the load-generation half of the serving evaluation: drivers
// that offer traffic to an inference target (a serve.Batcher, an HTTP
// endpoint, any func(i int) error) and a latency/throughput report over the
// completions. Closed-loop holds concurrency constant — each client fires
// its next request when the previous one returns — while open-loop holds
// the *arrival rate* constant regardless of completions, the regime where
// queueing and batching actually show up.

// LoadReport summarizes one load-generation run.
type LoadReport struct {
	Requests int           // completions observed
	Errors   int           // completions that returned an error
	Elapsed  time.Duration // first arrival to last completion
	// ThroughputRPS is completed requests per second of elapsed time.
	ThroughputRPS float64
	Mean          time.Duration
	P50, P90, P99 time.Duration
	Max           time.Duration
}

// String renders the report as a one-stop latency/throughput line pair.
func (r LoadReport) String() string {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return fmt.Sprintf(
		"%d requests (%d errors) in %v: %.0f req/s\nlatency: mean %.3fms p50 %.3fms p90 %.3fms p99 %.3fms max %.3fms",
		r.Requests, r.Errors, r.Elapsed.Round(time.Millisecond), r.ThroughputRPS,
		ms(r.Mean), ms(r.P50), ms(r.P90), ms(r.P99), ms(r.Max))
}

// report folds a latency sample set into a LoadReport.
func report(lats []time.Duration, errs int, elapsed time.Duration) LoadReport {
	r := LoadReport{Requests: len(lats), Errors: errs, Elapsed: elapsed}
	if elapsed > 0 {
		r.ThroughputRPS = float64(len(lats)) / elapsed.Seconds()
	}
	if len(lats) == 0 {
		return r
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	r.Mean = sum / time.Duration(len(lats))
	r.P50 = LatencyPercentile(lats, 0.50)
	r.P90 = LatencyPercentile(lats, 0.90)
	r.P99 = LatencyPercentile(lats, 0.99)
	r.Max = lats[len(lats)-1]
	return r
}

// LatencyPercentile returns the nearest-rank percentile of an
// ascending-sorted latency sample.
func LatencyPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// ClosedLoop drives fn from `clients` concurrent workers until `total`
// requests have completed: each worker issues its next request the moment
// the previous one returns, so offered load adapts to service speed. fn
// receives the global request index.
func ClosedLoop(clients, total int, fn func(i int) error) LoadReport {
	if clients < 1 {
		clients = 1
	}
	if clients > total {
		clients = total
	}
	lats := make([]time.Duration, total)
	errCount := 0
	var errMu sync.Mutex
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				err := fn(i)
				lats[i] = time.Since(t0)
				if err != nil {
					errMu.Lock()
					errCount++
					errMu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return report(lats, errCount, time.Since(start))
}

// OpenLoop fires `total` requests at a fixed arrival interval regardless of
// completions — the offered load stays constant as latency grows, which is
// what exposes queueing delay and batching gains. Each request runs in its
// own goroutine; fn receives the request index. A request's latency runs
// from its scheduled arrival, so a stall that delays later requests shows in
// their latencies instead of vanishing (coordinated omission).
func OpenLoop(interval time.Duration, total int, fn func(i int) error) LoadReport {
	lats, failed, elapsed := openLoop(interval, total, fn)
	errCount := 0
	for _, f := range failed {
		if f {
			errCount++
		}
	}
	return report(lats, errCount, elapsed)
}

// openLoop is the arrival engine shared by OpenLoop and OpenLoopTagged: it
// runs fn(i) in its own goroutine at each paced arrival and times it from
// the arrival's due time. It returns every request's latency and failure
// flag, indexed by request, and the time from the first arrival to the last
// completion.
func openLoop(interval time.Duration, total int, fn func(i int) error) (lats []time.Duration, failed []bool, elapsed time.Duration) {
	lats, failed = make([]time.Duration, total), make([]bool, total)
	var wg sync.WaitGroup
	start := pace(interval, total, func(i int, due time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := fn(i)
			lats[i] = time.Since(due)
			failed[i] = err != nil
		}()
	})
	wg.Wait()
	return lats, failed, time.Since(start)
}

// pace calls launch(i, due) for i in [0, total), sleeping until each due
// time start + i·interval (a non-positive interval means 1ms), and returns
// start. The schedule comes off the global clock, not per-request sleeps,
// so a late launch neither stretches the offered interval nor moves a later
// request's due time. launch runs on the pacing goroutine and must hand the
// request off rather than perform it.
func pace(interval time.Duration, total int, launch func(i int, due time.Time)) time.Time {
	if interval <= 0 {
		interval = time.Millisecond
	}
	start := time.Now()
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		launch(i, due)
	}
	return start
}
