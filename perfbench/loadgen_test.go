package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsAStall drives a stub server that serializes requests
// and stalls once for 300 ms. Every request scheduled during the stall waits
// behind it, so timed from its intended arrival it is slow: the stall must
// land in the p99 and in the generator's lag. Timed from the actual send
// (the coordinated-omission error) the same run looks fast.
func TestOpenLoopCountsAStall(t *testing.T) {
	const (
		rate    = 200.0
		runFor  = 2 * time.Second
		stall   = 300 * time.Millisecond
		stallAt = 100
	)
	var mu sync.Mutex
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		time.Sleep(time.Millisecond)
		if served.Add(1) == stallAt {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	conns := 2
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}

	schedule := poissonSchedule(rate, runFor, 1)
	samples := openLoop(schedule, conns, func(int) bool {
		resp, err := c.Get(srv.URL)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	for i, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
	}
	p99 := latencyQuantiles(samples, runFor, 0.99)[0]
	lag := lagQuantile(samples, 0.99)
	sendTimed := make([]time.Duration, len(samples))
	for i, s := range samples {
		sendTimed[i] = s.latency - s.lag
	}
	naive := quantiles(sendTimed, 0.99)[0]
	t.Logf("%d requests: p99 from intended arrival %v, p99 lag %v, p99 from send %v", len(samples), p99, lag, naive)
	if p99 < stall/3 {
		t.Errorf("p99 %v does not show the %v stall", p99, stall)
	}
	if lag < stall/3 {
		t.Errorf("p99 lag %v does not show the %v stall", lag, stall)
	}
	if naive >= p99/2 {
		t.Errorf("send-timed p99 %v should hide most of the stall that the intended-arrival p99 %v shows", naive, p99)
	}
}

func TestPoissonScheduleRepeatsPerSeed(t *testing.T) {
	a := poissonSchedule(100, time.Second, 7)
	b := poissonSchedule(100, time.Second, 7)
	c := poissonSchedule(100, time.Second, 8)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs under one seed: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == len(c) && a[len(a)-1] == c[len(c)-1] {
		t.Error("different seeds gave the same schedule")
	}
}
