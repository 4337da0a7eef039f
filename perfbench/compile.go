package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// setupRepeats is how many times cold-compact sets up per run; its
// setup_s is their median.
const setupRepeats = 9

// coldTries is how many times cold-compact compiles each pair, and
// deltaTries how many times edit-delta compiles each edit.
const (
	coldTries  = 2
	deltaTries = 2
)

// tracedTriples is the number of seeded 3-mode groups the traced
// cold-compact run compiles after the pairs.
const tracedTriples = 1

// passCap, when positive, truncates every compile op list to that
// many ops. Only the smoke test sets it, to run the compile workloads at
// a tiny length.
var passCap int

func capOps[T any](ops []T) []T {
	if passCap > 0 && len(ops) > passCap {
		return ops[:passCap]
	}
	return ops
}

// compileOp is one compile of a closed-loop workload.
type compileOp struct {
	g        *group
	desc     string
	baseline string // baseline key sent with the request, if any
	res      *service.Result
	err      error // the compile's error
	bad      error // the correctness check's verdict
	dur      time.Duration
	use      spent   // the process resources the compile used
	fo       *flowOp // traced ops only
}

// run compiles the op and then checks it at once, outside the timed
// region, keeping only the serialisable result. Every op starts from a
// collected heap: otherwise an op's time depends on how much garbage the
// ops before it left, and so on the seeded order. With layers, the
// benchmark's own span covers service.ParseModes and the flow's stage
// spans arrive through Env.Trace; without, the op is the single
// service.CompileEnv call a user makes.
func (op *compileOp) run(cache *flow.Cache, rs refs, seed int64, layers *layerTable) {
	req := op.g.request(op.baseline)
	runtime.GC()
	u := snapshot()
	var cmp *flow.Comparison
	if layers == nil {
		t0 := time.Now()
		op.res, cmp, op.err = service.CompileEnv(req, service.Env{Cache: cache})
		op.dur = time.Since(t0)
		op.use = since(u)
	} else {
		tr := obs.NewTrace()
		t0 := time.Now()
		nls, err := service.ParseModes(req)
		parse := time.Since(t0)
		if err == nil {
			op.res, cmp, op.err = service.CompileNetlistsEnv(nls, req, service.Env{Cache: cache, Trace: tr})
		} else {
			op.err = err
		}
		op.dur = time.Since(t0)
		op.use = since(u)
		fo, err := analyseTrace(tr)
		if err != nil && op.err == nil {
			op.err = err
		}
		op.fo = &fo
		layers.add("service.parse", parse)
		for _, st := range fo.stages {
			layers.add("flow."+st.Stage, time.Duration(st.Millis*float64(time.Millisecond)))
		}
		layers.op(op.dur)
	}
	if op.err == nil {
		op.bad = checkCompile(rs, op.g, op.res, cmp, seed)
	}
}

// trouteCount reads the TRoute call count from a result's stage timings.
func trouteCount(res *service.Result) int {
	if res == nil {
		return 0
	}
	for _, st := range res.Timings {
		if st.Stage == "troute" {
			return st.Count
		}
	}
	return 0
}

// printRows writes the per-group rows: W against the sizing minimum and
// the TRoute calls make widening and delta retries visible.
func printRows(title string, ops []*compileOp) {
	fmt.Printf("rows, %s: group | W | minW | troute calls | baseline used | ms | edit\n", title)
	for _, op := range ops {
		w, minW, used := 0, 0, "-"
		if op.res != nil && op.res.Region != nil {
			w, minW = op.res.Region.ChannelW, op.res.Region.MinW
		}
		if op.res != nil && op.res.Delta != nil {
			used = fmt.Sprint(op.res.Delta.UsedBaseline)
		}
		fmt.Printf("  %-10s | %2d | %2d | %2d | %-5s | %9.1f | %s\n",
			op.g.label, w, minW, trouteCount(op.res), used, ms(op.dur), op.desc)
	}
}

// total sums the ops' resource use.
func total(ops []*compileOp) spent {
	var sp spent
	for _, op := range ops {
		sp = sp.add(op.use)
	}
	return sp
}

// finish counts the failed ops and reports the latency, throughput and
// quality metrics of a closed-loop compile run. The latency percentiles
// come from lat, or from the ops' own times when lat is nil.
func finish(o *outcome, ops []*compileOp, lat []time.Duration) {
	o.correct = true
	var durs []time.Duration
	var w, bits, wire float64
	for _, op := range ops {
		o.attempted++
		durs = append(durs, op.dur)
		switch {
		case op.err != nil:
			o.fail("%s %s: %v", op.g.label, op.desc, op.err)
		case op.bad != nil:
			o.fail("%s %s: %v", op.g.label, op.desc, op.bad)
			o.correct = false
		default:
			w += float64(op.res.Region.ChannelW)
			bits += float64(op.res.DCS.ReconfigBits)
			wire += 100 * op.res.WireVsMDR
		}
	}
	if lat == nil {
		lat = durs
	}
	l := summarise(lat)
	fmt.Println("latency:", l)
	sp := total(ops)
	n := float64(max(len(ops)-o.failed, 1))
	o.set("p50_ms", "ms", l.p50)
	o.set("tail_ms", "ms", l.tail)
	o.set("ops_per_s", "1/s", float64(len(ops))/sp.wall.Seconds())
	o.set("channel_width", "tracks", w/n)
	o.set("dcs_reconfig_bits", "bits", bits/n)
	o.set("wire_vs_mdr_pct", "%", wire/n)
	o.setCommon(sp.perOp(len(ops)))
}

// coldSetup generates the engines and prepares the correctness check's
// reference netlists and mappings.
func coldSetup() (*inputs, error) {
	in, err := newInputs()
	if err != nil {
		return nil, err
	}
	for _, b := range in.blifs {
		if _, err := in.refs.get(b); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// setupCold times setupRepeats set-ups, each from a collected heap, and
// keeps the last.
func setupCold(o *outcome) (*inputs, error) {
	var times []float64
	var in *inputs
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = coldSetup(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	o.set("setup_s", "s", median(times))
	return in, nil
}

// runColdCompact: every pair compiled cold, serially, with a fresh
// flow.Cache and no store.
func runColdCompact(seed int64, seconds float64) (*outcome, error) {
	o := &outcome{}
	in, err := setupCold(o)
	if err != nil {
		return nil, err
	}
	// Each pair compiles coldTries times, and its latency is the fastest
	// try: a stall of the shared host then costs one try, not the pair's
	// sample. Throughput and resources count every try.
	var ops []*compileOp
	var lat []time.Duration
	for i, g := range capOps(in.pairs(rand.New(rand.NewSource(seed)))) {
		best := time.Duration(math.MaxInt64)
		for k := 0; k < coldTries; k++ {
			op := &compileOp{g: g, desc: fmt.Sprintf("try %d", k+1)}
			op.run(flow.NewCache(), in.refs, seed+int64(i), nil)
			ops = append(ops, op)
			best = min(best, op.dur)
		}
		lat = append(lat, best)
	}
	printRows("cold-compact", ops)
	finish(o, ops, lat)
	printMetrics(o)
	return o, nil
}

// tracedRun compiles each op twice, alternating an untraced compile on a
// cache from plainCache and a traced one on a cache from tracedCache, so
// that drift during the run falls on both sides equally.
type tracedRun struct {
	plain, traced           []*compileOp
	layers                  layerTable
	agg                     flowAgg
	refs                    refs
	plainCache, tracedCache func() *flow.Cache
	placeAnneals, transfers uint64
}

func (t *tracedRun) do(g *group, desc, baseline string, seed int64) {
	p := &compileOp{g: g, desc: desc, baseline: baseline}
	p.run(t.plainCache(), t.refs, seed, nil)
	op := &compileOp{g: g, desc: desc, baseline: baseline}
	c := t.tracedCache()
	op.run(c, t.refs, seed, &t.layers)
	st := c.Stats()
	t.placeAnneals += st.PlaceAnneals
	t.transfers += st.PlaceTransfers
	t.plain = append(t.plain, p)
	t.traced = append(t.traced, op)
	t.agg.add(op.res, op.fo)
}

// report checks the traced ops against the untraced ones and sets the
// per-layer metrics; the tracing overhead compares the first n ops.
func (t *tracedRun) report(o *outcome, st store.Stats, n int, title string) {
	finish(o, t.traced, nil)
	neverPerturb(o, t.plain, t.traced)
	plain, traced := total(t.plain[:n]), total(t.traced[:n])
	o.set("harness.trace_overhead_pct", "%", 100*(traced.wall.Seconds()/plain.wall.Seconds()-1))
	for _, s := range []string{"synth", "size", "graph", "place", "route", "merge", "tplace", "troute", "bitstream"} {
		o.set("flow."+s+"_ms", "ms", ms(t.layers.mean("flow."+s)))
	}
	o.set("service.parse_us", "us", us(t.layers.mean("service.parse")))
	o.set("service.artifact_load_us", "us", us(t.layers.mean("flow.artifact-load")))
	t.agg.report(o, t.placeAnneals, t.transfers)
	setStore(o, st, len(t.traced))
	o.setRuntime(total(t.traced), len(t.traced))
	o.set("harness.unattributed_pct", "%", t.layers.print(title))
	keepLayers(o)
}

// layersColdCompact compiles every pair untraced and traced, checks that
// tracing changed no result byte, and adds a seeded draw of 3-mode groups
// to the traced layers.
func layersColdCompact(seed int64, seconds float64) (*outcome, error) {
	o := &outcome{}
	o.zeroLayers()
	in, err := setupCold(o)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	t := &tracedRun{refs: in.refs, plainCache: flow.NewCache, tracedCache: flow.NewCache}
	pairs := capOps(in.pairs(rng))
	for i, g := range pairs {
		t.do(g, "", "", seed+int64(i))
	}
	for i, g := range in.triples(rng, tracedTriples) {
		t.do(g, "3-mode", "", seed+int64(len(pairs)+i))
	}
	printRows("cold-compact, traced", t.traced)
	// The overhead compares the pairs alone: they are the same work on
	// every seed.
	t.report(o, store.Stats{}, len(pairs), "cold-compact, traced, the pairs and the drawn 3-mode groups")
	printMetrics(o)
	return o, nil
}

// neverPerturb fails every op whose traced result bytes differ from the
// untraced run's, timings aside.
func neverPerturb(o *outcome, plain, traced []*compileOp) {
	for i := range traced {
		a, b := plain[i].res, traced[i].res
		if a == nil || b == nil {
			continue // already failed
		}
		if !bytes.Equal(canonical(a), canonical(b)) {
			o.fail("%s %s: traced result differs from the untraced one", traced[i].g.label, traced[i].desc)
			o.correct = false
		}
	}
}

// keepLayers drops the end-to-end metrics from a traced run's result:
// its JSON line carries the per-layer metrics only.
func keepLayers(o *outcome) {
	keep := map[string]bool{}
	for _, m := range perLayer {
		keep[m.name] = true
	}
	for n := range o.metrics {
		if !keep[n] {
			delete(o.metrics, n)
		}
	}
}

// deltaSetup opens a fresh store and compiles the pool into it. It
// returns the store, the pool and each pair's baseline key.
func deltaSetup(dir string) (*store.Store, *warmPool, map[*group]string, error) {
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := fillPool(flow.NewCacheWithStore(st))
	if err != nil {
		return nil, nil, nil, err
	}
	keys := map[*group]string{}
	for i, g := range p.groups {
		keys[g] = p.res[i].BaselineKey
	}
	return st, p, keys, nil
}

// deltaStores sets up n fresh stores under dir and reports the median
// set-up time as setup_s.
func deltaStores(o *outcome, dir string, n int) ([]*store.Store, *warmPool, map[*group]string, error) {
	var sts []*store.Store
	var p *warmPool
	var keys map[*group]string
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		st, pi, ki, err := deltaSetup(filepath.Join(dir, fmt.Sprintf("store%d", i)))
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		sts, p, keys = append(sts, st), pi, ki
	}
	o.set("setup_s", "s", median(times))
	return sts, p, keys, nil
}

// editOps returns the edit catalogue in a seeded order, each edit to be
// sent with its pair's baseline key.
func editOps(pool []*group, keys map[*group]string, seed int64) ([]*compileOp, error) {
	es, err := catalogue(pool)
	if err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(es), func(a, b int) { es[a], es[b] = es[b], es[a] })
	var ops []*compileOp
	for _, e := range es {
		ops = append(ops, &compileOp{g: e.g, desc: e.desc, baseline: keys[e.base]})
	}
	return capOps(ops), nil
}

// runEditDelta: seeded one-token edits of setup-compiled pairs, each sent
// with its pair's baseline key, serially. Each compile gets a fresh
// flow.Cache on a run store, as a fresh `mmflow -cachedir` process would,
// so an edit's cost does not depend on which edits ran before it. Every
// edit compiles once against each of deltaTries stores set up alike (a
// second compile against the same store would be a result-tier hit), and
// its latency is the fastest try, as in cold-compact.
func runEditDelta(seed int64, seconds float64) (*outcome, error) {
	o := &outcome{}
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sts, p, keys, err := deltaStores(o, dir, deltaTries)
	if err != nil {
		return nil, err
	}
	edits, err := editOps(p.groups, keys, seed)
	if err != nil {
		return nil, err
	}
	rs := refs{}
	var ops []*compileOp
	var lat []time.Duration
	for i, e := range edits {
		best := time.Duration(math.MaxInt64)
		for k, st := range sts {
			op := &compileOp{g: e.g, desc: fmt.Sprintf("%s, try %d", e.desc, k+1), baseline: e.baseline}
			op.run(flow.NewCacheWithStore(st), rs, seed+int64(i), nil)
			ops = append(ops, op)
			best = min(best, op.dur)
		}
		lat = append(lat, best)
	}
	printRows("edit-delta", ops)
	finish(o, ops, lat)
	printMetrics(o)
	return o, nil
}

// layersEditDelta compiles the edits untraced against one fresh store and
// traced against a second, alternating, and then each edit cold without
// its baseline, to show the delta path's cost next to a cold compile of
// the same input. It then measures the layers of a warm request, served
// from the first store over HTTP, and of the fleet (see httpLayers).
func layersEditDelta(seed int64, seconds float64) (*outcome, error) {
	o := &outcome{}
	o.zeroLayers()
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sts, p, keys, err := deltaStores(o, dir, 2)
	if err != nil {
		return nil, err
	}
	ops, err := editOps(p.groups, keys, seed)
	if err != nil {
		return nil, err
	}
	t := &tracedRun{
		refs:        refs{},
		plainCache:  func() *flow.Cache { return flow.NewCacheWithStore(sts[0]) },
		tracedCache: func() *flow.Cache { return flow.NewCacheWithStore(sts[1]) },
	}
	before := sts[1].Stats()
	for i, op := range ops {
		t.do(op.g, op.desc, op.baseline, seed+int64(i))
	}
	stats := subStore(sts[1].Stats(), before)
	var deltaMs, coldMs []float64
	for _, p := range t.traced {
		c := &compileOp{g: p.g}
		c.run(flow.NewCache(), t.refs, seed, nil)
		deltaMs = append(deltaMs, ms(p.dur))
		coldMs = append(coldMs, ms(c.dur))
		p.desc += fmt.Sprintf(" (cold: %.1f ms)", ms(c.dur))
	}
	printRows("edit-delta, traced", t.traced)
	t.report(o, stats, len(ops), "edit-delta, traced")
	o.set("flow.delta_over_cold_x", "x", median(deltaMs)/median(coldMs))
	if err := httpLayers(o, dir, sts[0], p, seed, time.Duration(seconds/4*float64(time.Second))); err != nil {
		return nil, err
	}
	keepLayers(o)
	printMetrics(o)
	return o, nil
}
