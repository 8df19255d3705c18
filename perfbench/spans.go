package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// requestIDHeader carries the benchmark's request ID from the client span
// to the router span. The router does not forward it to replicas, so
// replica time is attributed in aggregate.
const requestIDHeader = "X-Bench-Request-Id"

// span is one interval the benchmark recorded around a call into a layer.
type span struct {
	name       string
	id         int64 // request ID, -1 where the layer cannot see one
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced pass pays one nil check per call.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(name string, id int64, start time.Time) {
	if r == nil {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, id: id, start: start, end: end})
	r.mu.Unlock()
}

// reset drops everything recorded so far.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// byName returns the recorded spans with the given name.
func (r *recorder) byName(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// wrap records a span named name around every predict h serves. Health
// and metrics probes pass through unrecorded.
func (r *recorder) wrap(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/predict" {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		id, err := strconv.ParseInt(req.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			id = -1
		}
		r.add(name, id, start)
	})
}

// totalDur sums span durations.
func totalDur(spans []span) time.Duration {
	var t time.Duration
	for _, s := range spans {
		t += s.dur()
	}
	return t
}

// traceEvent is one slice of the program's own obs tracer, read back from
// its Chrome-trace export (the tracer exposes its spans no other way).
type traceEvent struct {
	track   string
	name    string
	startUS int64 // since the tracer was created
	durUS   int64
	rows    int
}

// readTracer parses everything t recorded. Call it once the traced work has
// quiesced.
func readTracer(t *obs.Tracer) ([]traceEvent, error) {
	var buf bytes.Buffer
	if err := t.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("reading tracer export: %w", err)
	}
	tracks := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			tracks[e.Tid] = e.Args["name"]
		}
	}
	var out []traceEvent
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		rows, _ := strconv.Atoi(e.Args["rows"])
		out = append(out, traceEvent{track: tracks[e.Tid], name: e.Name, startUS: e.Ts, durUS: e.Dur, rows: rows})
	}
	return out, nil
}

// sumEvents totals the duration and rows label of the events matching keep.
func sumEvents(evs []traceEvent, keep func(traceEvent) bool) (n int, durUS int64, rows int) {
	for _, e := range evs {
		if keep(e) {
			n++
			durUS += e.durUS
			rows += e.rows
		}
	}
	return n, durUS, rows
}
