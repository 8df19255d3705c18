package bench

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClosedLoopCompletesEveryRequestOnce(t *testing.T) {
	const total = 200
	seen := make([]int32, total)
	rep := ClosedLoop(8, total, func(i int) error {
		atomic.AddInt32(&seen[i], 1)
		return nil
	})
	if rep.Requests != total || rep.Errors != 0 {
		t.Fatalf("report %d requests / %d errors, want %d / 0", rep.Requests, rep.Errors, total)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("request %d ran %d times", i, n)
		}
	}
	if rep.ThroughputRPS <= 0 || rep.Max < rep.P50 {
		t.Fatalf("implausible report: %+v", rep)
	}
}

func TestClosedLoopBoundsConcurrency(t *testing.T) {
	const clients = 4
	var cur, peak int32
	var mu sync.Mutex
	ClosedLoop(clients, 64, func(i int) error {
		n := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
		return nil
	})
	if peak > clients {
		t.Fatalf("observed %d concurrent requests with %d clients", peak, clients)
	}
}

func TestClosedLoopCountsErrors(t *testing.T) {
	rep := ClosedLoop(2, 10, func(i int) error {
		if i%2 == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if rep.Errors != 5 {
		t.Fatalf("reported %d errors, want 5", rep.Errors)
	}
}

func TestOpenLoopHoldsArrivalRate(t *testing.T) {
	const total = 20
	const interval = 2 * time.Millisecond
	// A fn far slower than the interval must not stretch the arrival
	// schedule: elapsed stays near total*interval + one service time, far
	// below the total*service a closed single client would take.
	const service = 10 * time.Millisecond
	rep := OpenLoop(interval, total, func(i int) error {
		time.Sleep(service)
		return nil
	})
	if rep.Requests != total {
		t.Fatalf("completed %d, want %d", rep.Requests, total)
	}
	if rep.Elapsed > total*service/2 {
		t.Fatalf("open loop took %v — arrivals were serialized behind completions", rep.Elapsed)
	}
}

// TestOpenLoopCountsAStall drives a backend that serves one request at a
// time and stalls once for 100ms. Every request scheduled during the stall
// waits behind it, so timed from its scheduled arrival it is slow: the stall
// must show in the tail and in the mean, not only in the one request that
// hit it.
func TestOpenLoopCountsAStall(t *testing.T) {
	const (
		total    = 100
		interval = 2 * time.Millisecond
		stall    = 100 * time.Millisecond
		stallAt  = 20
	)
	var mu sync.Mutex
	rep := OpenLoop(interval, total, func(i int) error {
		mu.Lock()
		defer mu.Unlock()
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	})
	if rep.Requests != total || rep.Errors != 0 {
		t.Fatalf("report %d requests / %d errors, want %d / 0", rep.Requests, rep.Errors, total)
	}
	// About 50 requests arrive during the stall, queued for up to 98ms; the
	// run's p90 lands among them and the mean carries about 25ms of it.
	if rep.Max < stall {
		t.Errorf("max %v below the %v stall", rep.Max, stall)
	}
	if rep.P90 < stall/2 {
		t.Errorf("p90 %v does not show the requests queued behind the %v stall", rep.P90, stall)
	}
	if rep.Mean < stall/8 {
		t.Errorf("mean %v does not carry the %v stall's queueing", rep.Mean, stall)
	}
}

// A late launch — the generator itself descheduled — must not move the
// schedule: later requests keep their due times, so their latencies,
// measured from due, include the generator's lag.
func TestPaceKeepsDueTimesThroughALateLaunch(t *testing.T) {
	const (
		total    = 6
		interval = time.Millisecond
		stall    = 30 * time.Millisecond
	)
	dues := make([]time.Time, total)
	launched := make([]time.Time, total)
	start := pace(interval, total, func(i int, due time.Time) {
		dues[i], launched[i] = due, time.Now()
		if i == 2 {
			time.Sleep(stall)
		}
	})
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Fatalf("request %d due at start+%v, want start+%v", i, due.Sub(start), want.Sub(start))
		}
	}
	if lag := launched[3].Sub(dues[3]); lag < stall-interval {
		t.Fatalf("request 3 launched %v after its due time, want at least %v", lag, stall-interval)
	}
}

func TestLatencyPercentileNearestRank(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.90, 90 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := LatencyPercentile(sorted, tc.p); got != tc.want {
			t.Fatalf("p%.0f = %v, want %v", 100*tc.p, got, tc.want)
		}
	}
	if LatencyPercentile(nil, 0.5) != 0 {
		t.Fatal("empty sample must report zero")
	}
}

func TestLoadReportString(t *testing.T) {
	rep := ClosedLoop(2, 8, func(i int) error { return nil })
	s := rep.String()
	for _, want := range []string{"8 requests", "req/s", "p99"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
}
