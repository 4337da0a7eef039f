package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// Open-loop request rates of the HTTP phases. Each is well below what two
// cores serve (a warm hit costs about 4 ms of CPU here, a fleet hit about
// 7 ms), so the layer split is taken on an unsaturated service.
const (
	warmRate  = 80.0 // requests per second
	fleetRate = 30.0
)

// warmUpLoad is how long each HTTP phase runs unmeasured first: cost per
// request drifts over the first seconds of a new load level (heap growth,
// connection pools).
const warmUpLoad = time.Second

// replayOps bounds how many traced requests are replayed to split the
// handler time into its stages.
const replayOps = 200

// timer is an http.Handler wrapper that, while on, sums the time its
// handler takes.
type timer struct {
	h       http.Handler
	on      atomic.Bool
	mu      sync.Mutex
	n       int
	total   time.Duration
	gets    int // blob GET requests (store handler only)
	getTime time.Duration
}

func (t *timer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(t0)
	t.mu.Lock()
	t.n++
	t.total += d
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/blob/") {
		t.gets++
		t.getTime += d
	}
	t.mu.Unlock()
}

// sample is one HTTP request.
type sample struct {
	idx             int // pool index
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

func post(client *http.Client, url string, body []byte, s *sample) {
	s.sent = time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		s.err, s.done = err, time.Now()
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.status = resp.StatusCode
}

// openLoop sends requests due at a fixed rate, whatever the responses
// do, from clients goroutines sharing clients connections; a request
// that finds both busy waits, and its latency counts from its due time.
func openLoop(client *http.Client, url string, bodies [][]byte, rng *rand.Rand, rate float64, d time.Duration) []sample {
	n := int(rate * d.Seconds())
	out := make([]sample, n)
	for i := range out {
		out[i].idx = rng.Intn(len(bodies))
	}
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &out[i]
				s.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(s.due))
				post(client, url, bodies[s.idx], s)
			}
		}()
	}
	wg.Wait()
	return out
}

// checkSamples counts failed requests: transport errors, non-200 answers
// and bodies whose timings-free bytes differ from the setup compile.
func checkSamples(o *outcome, samples []sample, want [][]byte) {
	for i := range samples {
		s := &samples[i]
		o.attempted++
		switch {
		case s.err != nil:
			o.fail("request %d: %v", i, s.err)
		case s.status != http.StatusOK:
			o.fail("request %d: status %d: %.200s", i, s.status, s.body)
		default:
			got, err := canonicalBody(s.body)
			if err != nil || !bytes.Equal(got, want[s.idx]) {
				o.fail("request %d: response differs from the setup compile", i)
				o.correct = false
			}
		}
		s.body = nil
	}
}

func latencySummary(samples []sample) latencies {
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		ds[i] = s.done.Sub(s.due)
	}
	return summarise(ds)
}

// warmPool is the request pool, compiled in setup: its pairs, their
// request bodies and results.
type warmPool struct {
	groups []*group
	bodies [][]byte
	want   [][]byte // canonical result bytes per pool entry
	res    []*service.Result
}

// fillPool compiles the pool into cache's store.
func fillPool(cache *flow.Cache) (*warmPool, error) {
	in, err := newInputs()
	if err != nil {
		return nil, err
	}
	p := &warmPool{groups: in.pool()}
	for _, g := range p.groups {
		res, _, err := service.CompileEnv(g.request(""), service.Env{Cache: cache})
		if err != nil {
			return nil, fmt.Errorf("setup compile %s: %w", g.label, err)
		}
		res.Timings = nil
		p.res = append(p.res, res)
		p.want = append(p.want, canonical(res))
		p.bodies = append(p.bodies, g.body(""))
	}
	return p, nil
}

// deployment is one HTTP service under test.
type deployment struct {
	url     string // POST target
	client  *http.Client
	front   *timer   // the handler the client talks to
	workers []*timer // compile servers' handlers
	storeH  *timer   // remote store handler (fleet only)
	caches  []*flow.Cache
	replay  *flow.Cache // reads the filled store for the stage replay
	disp    *service.Dispatcher
	closers []func()
}

func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

func (d *deployment) trace(on bool) {
	for _, t := range append([]*timer{d.front}, d.workers...) {
		t.on.Store(on)
	}
}

// stats sums the compile servers' store counters.
func (d *deployment) stats() store.Stats {
	var st store.Stats
	for _, c := range d.caches {
		st = addStore(st, c.Stats().Store)
	}
	return st
}

// warmUp sends every pool request once, so connections exist and every
// worker holds its share of the pool before timing starts.
func (d *deployment) warmUp(p *warmPool) error {
	for i, b := range p.bodies {
		var s sample
		post(d.client, d.url, b, &s)
		if s.err != nil || s.status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d: %v", i, s.status, s.err)
		}
	}
	return nil
}

// newServer starts one service.Server over a store the pool was compiled
// into.
func newServer(st *store.Store, p *warmPool) (*deployment, error) {
	cache := flow.NewCacheWithStore(st)
	h := &timer{h: service.NewServer(cache, clients).Handler()}
	ts := httptest.NewServer(h)
	d := &deployment{url: ts.URL + "/compile", client: newClient(), front: h, workers: []*timer{h},
		caches: []*flow.Cache{cache}, replay: cache}
	d.closers = append(d.closers, ts.Close, d.client.CloseIdleConnections)
	if err := d.warmUp(p); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// newFleet starts a store handler over a store the pool was compiled
// into, two workers with empty local stores under dir attached to it, and
// a dispatcher in front of them.
func newFleet(dir string, shared *store.Store, p *warmPool) (*deployment, error) {
	d := &deployment{client: newClient(), replay: flow.NewCacheWithStore(shared)}
	// The store handler's timer stays on: remote reads happen while the
	// warm-up fills the workers, before the traced phase.
	d.storeH = &timer{h: store.Handler(shared)}
	d.storeH.on.Store(true)
	sts := httptest.NewServer(d.storeH)
	d.closers = append(d.closers, sts.Close)
	var urls []string
	for w := 0; w < 2; w++ {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("worker%d", w)), 0)
		if err != nil {
			d.close()
			return nil, err
		}
		st.AttachRemote(store.NewRemote(sts.URL, 0))
		cache := flow.NewCacheWithStore(st)
		h := &timer{h: service.NewServer(cache, clients).Handler()}
		ts := httptest.NewServer(h)
		d.closers = append(d.closers, ts.Close)
		d.workers = append(d.workers, h)
		d.caches = append(d.caches, cache)
		urls = append(urls, ts.URL)
	}
	disp, err := service.NewDispatcher(urls, service.DispatchOptions{})
	if err != nil {
		d.close()
		return nil, err
	}
	d.disp = disp
	d.front = &timer{h: disp.Handler()}
	dts := httptest.NewServer(d.front)
	d.url = dts.URL + "/compile"
	d.closers = append(d.closers, disp.Close, dts.Close, d.client.CloseIdleConnections)
	if err := d.warmUp(p); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// httpLayers measures the layers of a warm request. A service.Server over
// st, into which the pool was compiled, takes an open loop at warmRate;
// then a fleet on the same store takes one at fleetRate: a dispatcher in
// front of two workers whose empty local stores sit on st through
// store.Handler. Each phase lasts dur. The handler times are split by a
// replay of the handler's public calls, and every response is checked.
func httpLayers(o *outcome, dir string, st *store.Store, p *warmPool, seed int64, dur time.Duration) error {
	rng := rand.New(rand.NewSource(seed))
	d, err := newServer(st, p)
	if err != nil {
		return err
	}
	defer d.close()
	warm := openLoop(d.client, d.url, p.bodies, rng, warmRate, warmUpLoad)
	traced := d.tracedLoop(p, rng, warmRate, dur)
	fmt.Println("warm-http open-loop latency, traced:", latencySummary(traced))
	sv, err := d.layers(o, p, traced, "warm-http")
	if err != nil {
		return err
	}
	o.set("service.handler_us", "us", us(sv.handler))
	o.set("service.transport_us", "us", us(sv.transport))
	o.set("harness.lateness_ms", "ms", summarise(sv.late).tail)
	checkSamples(o, warm, p.want)
	checkSamples(o, traced, p.want)

	f, err := newFleet(dir, st, p)
	if err != nil {
		return err
	}
	defer f.close()
	fwarm := openLoop(f.client, f.url, p.bodies, rng, fleetRate, warmUpLoad)
	ftraced := f.tracedLoop(p, rng, fleetRate, dur)
	fmt.Println("fleet open-loop latency, traced:", latencySummary(ftraced))
	fv, err := f.layers(&outcome{}, p, ftraced, "fleet")
	if err != nil {
		return err
	}
	ds := f.disp.Stats()
	o.set("dispatch.forward_ms", "ms", ms(fv.rt-fv.handler))
	o.set("dispatch.failovers", "count", float64(ds.Retries))
	o.set("dispatch.shed", "count", float64(ds.Shed))
	// The workers fetched their share of the pool from the remote tier
	// during warm-up; report that traffic for the whole fleet phase.
	all := f.stats()
	o.set("store.remote_hits", "count", float64(all.RemoteHits))
	o.set("store.remote_errors", "count", float64(all.RemoteErrors))
	if f.storeH.gets > 0 {
		o.set("store.remote_get_ms", "ms", ms(f.storeH.getTime)/float64(f.storeH.gets))
	}
	checkSamples(o, fwarm, p.want)
	checkSamples(o, ftraced, p.want)
	return nil
}

// tracedLoop runs the open loop with the handler timers on.
func (d *deployment) tracedLoop(p *warmPool, rng *rand.Rand, rate float64, dur time.Duration) []sample {
	d.trace(true)
	defer d.trace(false)
	return openLoop(d.client, d.url, p.bodies, rng, rate, dur)
}

// split is the per-request mean split of traced requests.
type split struct {
	rt, handler, transport time.Duration
	late                   []time.Duration
}

// layers prints the layer table of traced requests: the generator's
// lateness, the transport (round trip minus the front handler), the
// dispatcher (front minus worker handler, fleet only), the worker
// handler's stages from a replay, and the unattributed rest. It sets the
// service stage metrics.
func (d *deployment) layers(o *outcome, p *warmPool, traced []sample, title string) (split, error) {
	var sv split
	t := &layerTable{}
	var rt time.Duration
	for _, s := range traced {
		sv.late = append(sv.late, s.sent.Sub(s.due))
		rt += s.done.Sub(s.sent)
		t.op(s.done.Sub(s.due))
	}
	n := time.Duration(max(len(traced), 1))
	sv.rt, sv.handler = rt/n, meanOf(d.workers)
	front := meanOf([]*timer{d.front})
	sv.transport = sv.rt - front
	t.add("harness.lateness", sum(sv.late))
	t.add("service.transport", sv.transport*n)
	if d.disp != nil {
		t.add("dispatch", (front-sv.handler)*n)
	}
	stages, parseAlloc, err := replay(traced, p.bodies, d.replay)
	if err != nil {
		return sv, err
	}
	for _, name := range []string{"decode", "parse", "key", "artifact_load", "encode"} {
		t.add("service."+name, stages[name]*n)
		o.set("service."+name+"_us", "us", us(stages[name]))
	}
	o.set("service.parse_alloc_kb", "KiB", parseAlloc)
	t.print(fmt.Sprintf("%s, %d traced requests, handler split from a replay of %d", title, len(traced), min(len(traced), replayOps)))
	return sv, nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// meanOf is the mean handler time over the timers' requests.
func meanOf(ts []*timer) time.Duration {
	var total time.Duration
	n := 0
	for _, t := range ts {
		t.mu.Lock()
		total += t.total
		n += t.n
		t.mu.Unlock()
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// replay re-runs, serially and after the timed run, the public calls a
// compile handler makes on each traced request: decode the JSON body,
// service.ParseModes, service.RequestKey, service.CompileNetlistsEnv
// (whose artifact-load span is the store read and result decode; the
// rest of the call is the result key, counted with RequestKey), and the
// indented JSON encode of the response. It returns per-request mean stage
// times and the mean KiB ParseModes allocates.
func replay(traced []sample, bodies [][]byte, cache *flow.Cache) (map[string]time.Duration, float64, error) {
	stages := map[string]time.Duration{}
	step := max(1, len(traced)/replayOps)
	n := 0
	var alloc uint64
	for i := 0; i < len(traced) && n < replayOps; i += step {
		body := bodies[traced[i].idx]
		t0 := time.Now()
		var req service.CompileRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return nil, 0, err
		}
		t1 := time.Now()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t2 := time.Now()
		nls, err := service.ParseModes(&req)
		t3 := time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, 0, err
		}
		t4 := time.Now()
		service.RequestKey(nls, &req)
		tr := obs.NewTrace()
		t5 := time.Now()
		res, _, err := service.CompileNetlistsEnv(nls, &req, service.Env{Cache: cache, Trace: tr})
		t6 := time.Now()
		if err != nil {
			return nil, 0, err
		}
		var load time.Duration
		for _, st := range tr.Stages() {
			if st.Stage == "artifact-load" {
				load = time.Duration(st.Millis * float64(time.Millisecond))
			}
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return nil, 0, err
		}
		t7 := time.Now()
		stages["decode"] += t1.Sub(t0)
		stages["parse"] += t3.Sub(t2)
		stages["key"] += t5.Sub(t4) + t6.Sub(t5) - load
		stages["artifact_load"] += load
		stages["encode"] += t7.Sub(t6)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		n++
	}
	for k := range stages {
		stages[k] /= time.Duration(max(n, 1))
	}
	return stages, float64(alloc) / 1024 / float64(max(n, 1)), nil
}
