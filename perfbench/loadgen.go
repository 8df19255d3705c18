package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request. latency runs from the request's intended
// arrival time — not from when a connection became free to send it — so a
// stall that delays later sends shows up in their latencies instead of
// vanishing (coordinated omission). lag is how late the send itself ran.
type sample struct {
	lag, latency time.Duration
	ok           bool
}

// poissonSchedule returns the arrival offsets of a Poisson process with the
// given rate (per second) over dur, drawn from seed.
func poissonSchedule(rate float64, dur time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// openLoop sends request i at schedule[i] (offsets from the call) over at
// most conns concurrent senders and returns one sample per request, in
// schedule order. do performs request i and reports whether it succeeded.
// When every sender is busy the next request goes out late; its latency is
// still timed from its scheduled arrival.
func openLoop(schedule []time.Duration, conns int, do func(i int) bool) []sample {
	out := make([]sample, len(schedule))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(schedule) {
					return
				}
				due := start.Add(schedule[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				ok := do(i)
				out[i] = sample{lag: sent.Sub(due), latency: time.Since(due), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs conns clients that each send their next request as soon
// as the previous one completes, for dur. Request indices are distinct
// across clients. It returns the number of requests completed successfully
// and the time the phase took.
func closedLoop(conns int, dur time.Duration, do func(i int) bool) (okN int, elapsed time.Duration) {
	var next, oks atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if do(int(next.Add(1) - 1)) {
					oks.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(oks.Load()), time.Since(start)
}

// latencyQuantiles returns the nearest-rank quantiles qs of the samples'
// latencies. A failed request misses any latency limit, so it ranks as
// slower than every success; it is charged the phase length, which no
// meaningful limit exceeds.
func latencyQuantiles(samples []sample, phase time.Duration, qs ...float64) []time.Duration {
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		lat[i] = s.latency
		if !s.ok && lat[i] < phase {
			lat[i] = phase
		}
	}
	return quantiles(lat, qs...)
}

// lagQuantile is the nearest-rank q-quantile of the generator's send lag.
func lagQuantile(samples []sample, q float64) time.Duration {
	lag := make([]time.Duration, len(samples))
	for i, s := range samples {
		lag[i] = s.lag
	}
	return quantiles(lag, q)[0]
}

// quantiles returns nearest-rank quantiles of d (which it sorts).
func quantiles(d []time.Duration, qs ...float64) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	out := make([]time.Duration, len(qs))
	if len(d) == 0 {
		return out
	}
	for k, q := range qs {
		i := int(math.Ceil(q*float64(len(d)))) - 1
		if i < 0 {
			i = 0
		}
		out[k] = d[i]
	}
	return out
}

// mix is splitmix64: a stateless hash that turns (seed, request index,
// draw) into an independent pseudo-random word, so any sender can derive
// request i's contents without sharing a generator.
func mix(seed int64, i, k int) uint64 {
	z := uint64(seed) ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(k)*0xd1b54a32d192ed03
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
