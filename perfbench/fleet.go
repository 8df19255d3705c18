package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/composer"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// fleet-sw-single: router → two replicas serving the rapidnn-serve -demo
// MNIST model on the software path, one row per request. Per-request
// overhead (HTTP hops, JSON, admission, the batcher's MaxDelay timer)
// dominates and rna does no work.
const (
	// fleetScale is the model.FCNet width scale.
	fleetScale = 0.05
	// fleetRate is the open-loop arrival rate per second, near a sixth of
	// the closed-loop peak. At higher rates, Poisson bursts queue behind
	// the nproc connections, and the p99 then moves by a third from one
	// seed to the next.
	fleetRate = 100
	// poolRows is how many distinct input rows requests draw from.
	poolRows = 512
)

const (
	modelName = "demo"
	// maxBatch is serve's default BatcherConfig.MaxBatch, which the
	// replicas run with.
	maxBatch = 16
	// tenants spread the (tenant, model) ring keys over both replicas.
	tenants = 8
	// openShare is the part of a run's time spent in the open-loop phase;
	// the rest is the closed-loop phase. The run alternates the two phases
	// cycles times. The open loop needs a few thousand samples for a steady
	// p50; the closed loop needs seconds per cycle, so that a host stall of
	// a few hundred milliseconds does not move its rate much.
	openShare = 0.7
	cycles    = 4
	// warmup runs before each measured pass, so lanes, connections and
	// caches exist before timing starts.
	warmup = 300 * time.Millisecond
	// Request-index bases keep the phases' inputs distinct.
	closedBase = 1 << 30
	warmBase   = 2 << 30
)

// rig is one running fleet: two replicas behind a router, all listening on
// loopback.
type rig struct {
	models  []*serve.Model
	servers []*serve.Server
	https   []*http.Server
	urls    []string
	pool    *fleet.Pool
	router  *fleet.Router
	front   *http.Server
	url     string
	tenants []string
}

// startRig brings a fleet from an artifact on disk to ready: both replicas
// load it (mmap, software model), listen, and the router's pool
// sees both healthy.
func startRig(path string, rec *recorder, tr *obs.Tracer) (*rig, error) {
	r := &rig{}
	for i := 0; i < 2; i++ {
		m, err := serve.LoadModelFile(modelName, path, false, 0)
		if err != nil {
			r.close()
			return nil, err
		}
		r.models = append(r.models, m)
		reg := serve.NewRegistry()
		if err := reg.Add(m); err != nil {
			r.close()
			return nil, err
		}
		srv := serve.NewServer(reg, serve.Config{Trace: tr, Replica: "r" + strconv.Itoa(i)})
		r.servers = append(r.servers, srv)
		url, hs, err := listen(rec.wrap("replica", srv))
		if err != nil {
			r.close()
			return nil, err
		}
		r.https = append(r.https, hs)
		r.urls = append(r.urls, url)
	}
	r.pool = fleet.NewPool(fleet.PoolConfig{})
	for _, u := range r.urls {
		if info := r.pool.Add(u); info.State != fleet.StateHealthy {
			r.close()
			return nil, fmt.Errorf("replica %s is %s: %s", u, info.State, info.LastError)
		}
	}
	r.pool.Start()
	r.router = fleet.NewRouter(fleet.RouterConfig{Pool: r.pool})
	url, hs, err := listen(rec.wrap("router", r.router))
	if err != nil {
		r.close()
		return nil, err
	}
	r.front, r.url = hs, url
	return r, nil
}

func listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), hs, nil
}

// close stops the router, the pool's prober and both replicas, draining
// their batchers, then unmaps the artifacts.
func (r *rig) close() {
	if r.front != nil {
		r.front.Close()
	}
	if r.pool != nil {
		r.pool.Stop()
	}
	for _, hs := range r.https {
		hs.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
	for _, m := range r.models {
		m.Composed.Close()
	}
}

// quiesce waits until every handler has returned and every batcher has
// drained, so all spans and counters are final.
func (r *rig) quiesce() error {
	r.pool.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range append([]*http.Server{r.front}, r.https...) {
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("quiescing the fleet: %w", err)
		}
	}
	for _, srv := range r.servers {
		srv.Close()
	}
	return nil
}

// pickTenants names tenants so that each replica owns the same number of
// (tenant, model) ring keys. Replica ports are random, so named tenants
// would split differently on every run and move the metrics with them.
func (r *rig) pickTenants() error {
	perReplica := map[string][]string{}
	for i := 0; i < 1000 && len(r.tenants) < tenants; i++ {
		t := "tenant-" + strconv.Itoa(i)
		owner := r.pool.Route(t+"|"+modelName, 1)
		if len(owner) != 1 || len(perReplica[owner[0]]) >= tenants/len(r.urls) {
			continue
		}
		perReplica[owner[0]] = append(perReplica[owner[0]], t)
		r.tenants = append(r.tenants, t)
	}
	if len(r.tenants) != tenants {
		return fmt.Errorf("could not balance %d tenants over %d replicas", tenants, len(r.urls))
	}
	return nil
}

// client sends the workload's predicts to a rig and checks every answer.
type client struct {
	seed    int64
	url     string
	tenants []string
	http    *http.Client
	rowJSON [][]byte // each pool row, JSON-encoded once
	want    []int    // reference prediction of each pool row
	rec     *recorder

	sent, failed atomic.Int64
	mu           sync.Mutex
	mismatch     error
}

// do sends request i and reports whether it succeeded with the expected
// prediction. Its row and tenant are a function of (seed, i) alone.
func (c *client) do(i int) bool {
	c.sent.Add(1)
	var body bytes.Buffer
	tenant := c.tenants[mix(c.seed, i, 0)%uint64(len(c.tenants))]
	row := int(mix(c.seed, i, 1) % uint64(len(c.rowJSON)))
	fmt.Fprintf(&body, `{"model":%q,"path":%q,"tenant":%q,"inputs":[%s]}`,
		modelName, serve.PathSoftware, tenant, c.rowJSON[row])
	req, err := http.NewRequest(http.MethodPost, c.url+"/v1/predict", &body)
	if err != nil {
		return c.fail()
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, strconv.Itoa(i))
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return c.fail()
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.rec.add("client", int64(i), start)
	if err != nil || resp.StatusCode != http.StatusOK {
		return c.fail()
	}
	var pr struct {
		Predictions []int `json:"predictions"`
	}
	if err := json.Unmarshal(payload, &pr); err != nil {
		return c.fail()
	}
	if len(pr.Predictions) != 1 {
		return c.badOutput(fmt.Errorf("request %d: %d predictions for 1 row", i, len(pr.Predictions)))
	}
	if pr.Predictions[0] != c.want[row] {
		return c.badOutput(fmt.Errorf("request %d (pool row %d): served %d, reference %d",
			i, row, pr.Predictions[0], c.want[row]))
	}
	return true
}

func (c *client) fail() bool {
	c.failed.Add(1)
	return false
}

func (c *client) badOutput(err error) bool {
	c.mu.Lock()
	if c.mismatch == nil {
		c.mismatch = err
	}
	c.mu.Unlock()
	return c.fail()
}

// pass is one measured pass over a rig.
type pass struct {
	open        []sample
	openDur     time.Duration
	closedOK    int
	closedTime  time.Duration
	closedRates []float64 // completed predicts per second of each cycle
	sent, fails int
}

// measure warms the rig up, calls atStart (if set) as timing begins, then
// alternates the open-loop phase at fleetRate with the closed-loop
// phase (nproc back-to-back clients), cycles times each. Spreading both
// phases over the whole run lets each see the same mix of host conditions.
// Each cycle starts with a call of between (if set), outside the phases'
// clocks.
func measure(q *client, dur time.Duration, atStart func(), between func() error) (*pass, error) {
	conns := nproc()
	closedLoop(conns, warmup, func(i int) bool { return q.do(warmBase + i) })
	q.sent.Store(0)
	q.failed.Store(0)
	q.rec.reset()
	if atStart != nil {
		atStart()
	}

	p := &pass{}
	open := time.Duration(openShare * float64(dur) / cycles)
	closed := dur/cycles - open
	for k := 0; k < cycles; k++ {
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		schedule := poissonSchedule(fleetRate, open, q.seed+int64(k))
		if len(schedule) == 0 {
			return nil, errors.New("open-loop schedule is empty; run longer")
		}
		base := len(p.open)
		p.open = append(p.open, openLoop(schedule, conns, func(i int) bool { return q.do(base + i) })...)
		p.openDur += open
		ok, took := closedLoop(conns, closed, func(i int) bool { return q.do(closedBase + k<<24 + i) })
		p.closedOK += ok
		p.closedTime += took
		p.closedRates = append(p.closedRates, float64(ok)/took.Seconds())
	}
	p.sent, p.fails = int(q.sent.Load()), int(q.failed.Load())
	if q.mismatch != nil {
		return nil, fmt.Errorf("%w: %v", errMismatch, q.mismatch)
	}
	return p, nil
}

// rowsPerSec is the median over the cycles of the closed-loop phase's
// completed predicts per second, one row each. The median leaves out a
// cycle that a host stall slowed.
func (p *pass) rowsPerSec() float64 { return median(p.closedRates) }

// newClient prepares the pool rows, their reference predictions from the
// in-memory model the artifact was saved from, and a client bounded to
// nproc connections.
func newClient(c *composer.Composed, seed int64) (*client, error) {
	x := randomRows(poolRows, mnistFeatures, seed)
	q := &client{seed: seed, want: composer.NewReinterpreted(c.Net, c.Plans).Predict(x)}
	for i := 0; i < poolRows; i++ {
		b, err := json.Marshal(x.Data()[i*mnistFeatures : (i+1)*mnistFeatures])
		if err != nil {
			return nil, err
		}
		q.rowJSON = append(q.rowJSON, b)
	}
	tr := &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc(), DisableCompression: true}
	q.http = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	return q, nil
}

// attach points the client at a freshly started rig.
func (c *client) attach(r *rig, rec *recorder) error {
	if err := r.pickTenants(); err != nil {
		return err
	}
	c.url, c.tenants, c.rec = r.url, r.tenants, rec
	return nil
}

func runFleet(cfg runConfig) (*outcome, error) {
	c := syntheticComposed(fleetScale, false)
	path, err := saveArtifact(c, cfg.dir)
	if err != nil {
		return nil, err
	}
	q, err := newClient(c, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer q.http.CloseIdleConnections()

	if !cfg.trace {
		var setups []time.Duration
		var r *rig
		if err := timeSetup(&setups, func() (err error) { r, err = startRig(path, nil, nil); return err }); err != nil {
			return nil, err
		}
		defer r.close()
		if err := q.attach(r, nil); err != nil {
			return nil, err
		}
		// The extra set-ups come up beside the measured rig, idle between
		// phases, and close again at once.
		p, err := measure(q, cfg.dur, nil, func() error {
			for k := 0; k < setupsPerCycle; k++ {
				var extra *rig
				if err := timeSetup(&setups, func() (err error) { extra, err = startRig(path, nil, nil); return err }); err != nil {
					return err
				}
				extra.close()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		lat := latencyQuantiles(p.open, p.openDur, 0.5, 0.99)
		m := metrics{}
		m.set("setup_s", quantiles(setups, 0.5)[0].Seconds(), "s")
		m.set("lat_p50_ms", ms(lat[0]), "ms")
		m.set("rows_per_s", p.rowsPerSec(), "1/s")
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m.set("peak_rss_mb", rss, "MB")
		fmt.Fprintf(cfg.log, "open loop: %d requests at %.0f/s over %v, p99 %.3f ms; closed loop: %d completed in %v\n",
			len(p.open), float64(fleetRate), p.openDur, ms(lat[1]), p.closedOK, p.closedTime.Round(time.Millisecond))
		return &outcome{attempted: p.sent, failed: p.fails, m: m}, nil
	}
	return runFleetTraced(cfg, c, path, q)
}

// runFleetTraced makes an untraced and a traced pass of half the run each
// and reports the per-layer breakdown of the traced one.
func runFleetTraced(cfg runConfig, c *composer.Composed, path string, q *client) (*outcome, error) {
	half := cfg.dur / 2

	r, err := startRig(path, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := q.attach(r, nil); err != nil {
		r.close()
		return nil, err
	}
	plain, err := measure(q, half, nil, nil)
	r.close()
	if err != nil {
		return nil, err
	}

	rec := &recorder{}
	traceEpoch := time.Now()
	tr := obs.NewTracer(1 << 18)
	r, err = startRig(path, rec, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := q.attach(r, rec); err != nil {
		return nil, err
	}
	var before fleetCounts
	var sinceUS int64
	traced, err := measure(q, half, func() {
		before = counts(r)
		sinceUS = time.Since(traceEpoch).Microseconds()
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := r.quiesce(); err != nil {
		return nil, err
	}
	d := counts(r).minus(before)

	m := metrics{}
	m.set("client.lat_p99_ms", ms(latencyQuantiles(plain.open, plain.openDur, 0.99)[0]), "ms")
	m.set("client.lag_p99_ms", ms(lagQuantile(traced.open, 0.99)), "ms")
	m.set("client.sent", float64(traced.sent), "count")
	m.set("client.failed", float64(traced.fails), "count")

	clients, routers, replicas := rec.byName("client"), rec.byName("router"), rec.byName("replica")
	routerByID := map[int64]span{}
	for _, sp := range routers {
		routerByID[sp.id] = sp
	}
	var clientSelf time.Duration
	matched := 0
	for _, sp := range clients {
		if rt, ok := routerByID[sp.id]; ok {
			clientSelf += sp.dur() - rt.dur()
			matched++
		}
	}
	m.set("client.self_ms_mean", ms(clientSelf)/float64(max(matched, 1)), "ms")
	// The router forwards no request ID, so its self time is its spans
	// minus the replica spans they cover, in aggregate.
	m.set("fleet.self_ms_mean", ms(totalDur(routers)-totalDur(replicas))/float64(max(len(routers), 1)), "ms")
	m.set("serve.handler_ms_mean", ms(totalDur(replicas))/float64(max(len(replicas), 1)), "ms")
	m.set("fleet.attempts_per_req", ratio(float64(d.attempts), float64(len(routers))), "ratio")
	m.set("fleet.retries", float64(d.retries), "count")
	m.set("fleet.hedges", float64(d.hedges), "count")
	maxA, sumA := 0.0, 0.0
	for _, a := range d.admitted {
		sumA += a
		if a > maxA {
			maxA = a
		}
	}
	m.set("fleet.replica_skew", ratio(maxA, sumA/float64(len(d.admitted))), "ratio")
	m.set("serve.rejected", float64(d.rejected), "count")
	m.set("serve.canceled", float64(d.canceled), "count")

	evs, err := readTracer(tr)
	if err != nil {
		return nil, err
	}
	track := "serve/" + modelName + "/" + string(serve.PathSoftware)
	var batches, rows int
	var batchUS, rowWeightedUS float64
	for _, e := range evs {
		if e.track == track && e.name == "batch" && e.startUS >= sinceUS {
			batches++
			rows += e.rows
			batchUS += float64(e.durUS)
			rowWeightedUS += float64(e.durUS) * float64(e.rows)
		}
	}
	m.set("serve.compute_ms_mean", ratio(batchUS, float64(batches))/1e3, "ms")
	// A row waits for its batch to form and for the batches ahead of it;
	// the rest of its admission-to-delivery latency is its batch's compute.
	m.set("serve.wait_ms_mean", (ratio(d.latSum, float64(d.latN))*1e6-ratio(rowWeightedUS, float64(rows)))/1e3, "ms")
	m.set("serve.rows_per_batch", ratio(float64(rows), float64(batches)), "rows")
	m.set("serve.batch_fill", ratio(float64(rows), float64(batches))/maxBatch, "ratio")
	m.set("composer.sw_us_per_row", ratio(batchUS, float64(rows)), "us")
	m.set("trace.dropped", float64(tr.Dropped()), "count")
	m.set("trace.overhead_pct", (ratio(plain.rowsPerSec(), traced.rowsPerSec())-1)*100, "%")
	if err := modelSide(c, path, m); err != nil {
		return nil, err
	}
	return &outcome{attempted: plain.sent + traced.sent, failed: plain.fails + traced.fails, m: m}, nil
}

// fleetCounts are the router and replica counters a traced pass reads,
// taken as differences so the warm-up does not count.
type fleetCounts struct {
	attempts, retries, hedges uint64
	admitted                  []float64 // rows admitted, per replica
	latSum                    float64   // seconds, admission to delivery
	latN, rejected, canceled  uint64
}

func counts(r *rig) fleetCounts {
	ro := r.router.Obs()
	c := fleetCounts{
		attempts: ro.Counter("rapidnn_router_backend_attempts_total", "").Value(),
		retries:  ro.Counter("rapidnn_router_retries_total", "").Value(),
		hedges:   ro.Counter("rapidnn_router_hedges_total", "").Value(),
	}
	lane := obs.L("lane", modelName+"/"+string(serve.PathSoftware))
	for _, srv := range r.servers {
		reg := srv.Obs()
		c.admitted = append(c.admitted, float64(reg.Counter("rapidnn_serve_admitted_total", "", lane).Value()))
		h := reg.Histogram("rapidnn_serve_latency_seconds", "", nil, lane)
		c.latSum += h.Sum()
		c.latN += h.Count()
		c.rejected += reg.Counter("rapidnn_serve_requests_total", "", lane, obs.L("outcome", "rejected")).Value()
		c.canceled += reg.Counter("rapidnn_serve_requests_total", "", lane, obs.L("outcome", "canceled")).Value()
	}
	return c
}

func (c fleetCounts) minus(b fleetCounts) fleetCounts {
	d := fleetCounts{
		attempts: c.attempts - b.attempts, retries: c.retries - b.retries, hedges: c.hedges - b.hedges,
		latSum: c.latSum - b.latSum, latN: c.latN - b.latN,
		rejected: c.rejected - b.rejected, canceled: c.canceled - b.canceled,
	}
	for i := range c.admitted {
		d.admitted = append(d.admitted, c.admitted[i]-b.admitted[i])
	}
	return d
}
