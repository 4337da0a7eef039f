package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// perLayer lists every per-layer metric and its unit. A traced run emits
// all of them on every workload; a layer the workload does not reach
// reads 0, which is itself the prediction (flow work on warm-http, say).
var perLayer = []struct{ name, unit string }{
	{"service.decode_us", "us"},
	{"service.parse_us", "us"},
	{"service.parse_alloc_kb", "KiB"},
	{"service.key_us", "us"},
	{"service.artifact_load_us", "us"},
	{"service.encode_us", "us"},
	{"service.handler_us", "us"},
	{"service.transport_us", "us"},
	{"flow.synth_ms", "ms"},
	{"flow.size_ms", "ms"},
	{"flow.graph_ms", "ms"},
	{"flow.place_ms", "ms"},
	{"flow.route_ms", "ms"},
	{"flow.merge_ms", "ms"},
	{"flow.tplace_ms", "ms"},
	{"flow.troute_ms", "ms"},
	{"flow.bitstream_ms", "ms"},
	{"flow.troute_calls", "1/op"},
	{"flow.merge_calls", "1/op"},
	{"flow.widened_pct", "%"},
	{"flow.troute_useful_pct", "%"},
	{"flow.reconfig_speedup_x", "x"},
	{"flow.baseline_miss_pct", "%"},
	{"flow.delta_over_cold_x", "x"},
	{"route.iterations", "1/op"},
	{"route.rerouted", "1/op"},
	{"route.peak_overuse", "count"},
	{"route.warm_nets", "1/op"},
	{"place.anneals", "1/op"},
	{"place.transfers", "1/op"},
	{"store.read_kb_per_op", "KiB"},
	{"store.write_kb_per_op", "KiB"},
	{"store.hits", "1/op"},
	{"store.misses", "1/op"},
	{"store.remote_hits", "count"},
	{"store.remote_get_ms", "ms"},
	{"store.remote_errors", "count"},
	{"dispatch.forward_ms", "ms"},
	{"dispatch.failovers", "count"},
	{"dispatch.shed", "count"},
	{"runtime.gc_per_op", "1/op"},
	{"runtime.gc_pause_ms", "ms"},
	{"harness.lateness_ms", "ms"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.unattributed_pct", "%"},
}

// zeroLayers pre-sets every per-layer metric to 0.
func (o *outcome) zeroLayers() {
	for _, m := range perLayer {
		o.set(m.name, m.unit, 0)
	}
}

// layerTable splits the mean op wall time into named layers. Rows are
// per-op means; the unattributed row is whatever the wall time holds
// beyond them, so the rows always add up to the wall time.
type layerTable struct {
	order []string
	sum   map[string]time.Duration
	wall  time.Duration
	ops   int
}

func (t *layerTable) add(name string, d time.Duration) {
	if t.sum == nil {
		t.sum = map[string]time.Duration{}
	}
	if _, ok := t.sum[name]; !ok {
		t.order = append(t.order, name)
	}
	t.sum[name] += d
}

// op counts one op of the given wall time.
func (t *layerTable) op(wall time.Duration) {
	t.wall += wall
	t.ops++
}

// mean is a row's per-op mean.
func (t *layerTable) mean(name string) time.Duration {
	if t.ops == 0 {
		return 0
	}
	return t.sum[name] / time.Duration(t.ops)
}

func (t *layerTable) unattributed() time.Duration {
	if t.ops == 0 {
		return 0
	}
	var rows time.Duration
	for _, n := range t.order {
		rows += t.sum[n]
	}
	return (t.wall - rows) / time.Duration(t.ops)
}

// print writes the table and returns the unattributed row's share of the
// wall time in percent.
func (t *layerTable) print(title string) float64 {
	if t.ops == 0 {
		return 0
	}
	wall := t.wall / time.Duration(t.ops)
	fmt.Printf("layer table, %s: per-op means over %d ops\n", title, t.ops)
	for _, n := range t.order {
		d := t.mean(n)
		fmt.Printf("  %-26s %12.3f ms %6.1f%%\n", n, ms(d), 100*float64(d)/float64(wall))
	}
	u := t.unattributed()
	fmt.Printf("  %-26s %12.3f ms %6.1f%%\n", "unattributed", ms(u), 100*float64(u)/float64(wall))
	fmt.Printf("  %-26s %12.3f ms\n", "op wall time", ms(wall))
	return 100 * float64(u) / float64(wall)
}

// flowOp is what one traced compile's span tree says about the flow.
type flowOp struct {
	stages                            []obs.StageTiming
	trouteCalls, trouteOK, mergeCalls int
}

// analyseTrace reads a compile's stage times and classifies each TRoute
// call. The flow opens its stage spans in a fixed order, so a TRoute call
// succeeded exactly when the next stage is the merge of the other
// objective or the final bitstream; a widening (graph), re-anneal
// (place), same-objective retry (merge) or cold fall-back (size) after it
// means it failed.
func analyseTrace(tr *obs.Trace) (flowOp, error) {
	op := flowOp{stages: tr.Stages()}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return op, err
	}
	var evs []struct {
		Name string            `json:"name"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		return op, err
	}
	objective := ""
	for i, ev := range evs {
		switch ev.Name {
		case "merge":
			op.mergeCalls++
			objective = ev.Args["objective"]
		case "troute":
			op.trouteCalls++
		next:
			for _, nx := range evs[i+1:] {
				switch nx.Name {
				case "merge":
					if nx.Args["objective"] != objective {
						op.trouteOK++
					}
					break next
				case "bitstream":
					op.trouteOK++
					break next
				case "graph", "place", "size":
					break next
				}
			}
		}
	}
	return op, nil
}

// flowAgg accumulates the flow, route and place layers over compile ops.
type flowAgg struct {
	ops                                  int
	trouteCalls, trouteOK, mergeCalls    int
	widened, deltaAsked, baselineMiss    int
	iterations, rerouted, warmNets, peak int
	speedup                              float64
}

// sizedW is the channel width SizeRegion gives a region of minimum
// width minW (20% relaxation); a final width above it was widened.
func sizedW(minW int) int { return int(float64(minW)*1.2 + 0.999) }

func (a *flowAgg) add(res *service.Result, fo *flowOp) {
	a.ops++
	if res != nil && res.Region != nil {
		if res.Region.ChannelW > sizedW(res.Region.MinW) {
			a.widened++
		}
		a.speedup += res.SpeedupVsMDR
	}
	if res != nil && res.Routing != nil {
		a.iterations += res.Routing.Iterations
		a.rerouted += res.Routing.Rerouted
		a.peak = max(a.peak, res.Routing.PeakOveruse)
	}
	if res != nil && res.Delta != nil {
		a.deltaAsked++
		a.warmNets += res.Delta.WarmRouteNets
		if res.Delta.BaselineMiss {
			a.baselineMiss++
		}
	}
	if fo != nil {
		a.trouteCalls += fo.trouteCalls
		a.trouteOK += fo.trouteOK
		a.mergeCalls += fo.mergeCalls
	}
}

func (a *flowAgg) report(o *outcome, placeAnneals, transfers uint64) {
	n := float64(max(a.ops, 1))
	o.set("flow.troute_calls", "1/op", float64(a.trouteCalls)/n)
	o.set("flow.merge_calls", "1/op", float64(a.mergeCalls)/n)
	o.set("flow.widened_pct", "%", 100*float64(a.widened)/n)
	if a.trouteCalls > 0 {
		o.set("flow.troute_useful_pct", "%", 100*float64(a.trouteOK)/float64(a.trouteCalls))
	}
	o.set("flow.reconfig_speedup_x", "x", a.speedup/n)
	if a.deltaAsked > 0 {
		o.set("flow.baseline_miss_pct", "%", 100*float64(a.baselineMiss)/float64(a.deltaAsked))
	}
	o.set("route.iterations", "1/op", float64(a.iterations)/n)
	o.set("route.rerouted", "1/op", float64(a.rerouted)/n)
	o.set("route.peak_overuse", "count", float64(a.peak))
	o.set("route.warm_nets", "1/op", float64(a.warmNets)/n)
	o.set("place.anneals", "1/op", float64(placeAnneals)/n)
	o.set("place.transfers", "1/op", float64(transfers)/n)
}

// setStore reports the store layer from store statistics over ops ops.
func setStore(o *outcome, st store.Stats, ops int) {
	n := float64(max(ops, 1))
	o.set("store.read_kb_per_op", "KiB", float64(st.BytesRead)/1024/n)
	o.set("store.write_kb_per_op", "KiB", float64(st.BytesWritten)/1024/n)
	o.set("store.hits", "1/op", float64(st.Hits)/n)
	o.set("store.misses", "1/op", float64(st.Misses)/n)
	o.set("store.remote_hits", "count", float64(st.RemoteHits))
	o.set("store.remote_errors", "count", float64(st.RemoteErrors))
}

// addStore sums the store counters the benchmark reports.
func addStore(a, b store.Stats) store.Stats {
	a.BytesRead += b.BytesRead
	a.BytesWritten += b.BytesWritten
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.RemoteHits += b.RemoteHits
	a.RemoteErrors += b.RemoteErrors
	return a
}

// subStore is the difference b-a of the reported store counters.
func subStore(b, a store.Stats) store.Stats {
	b.BytesRead -= a.BytesRead
	b.BytesWritten -= a.BytesWritten
	b.Hits -= a.Hits
	b.Misses -= a.Misses
	b.RemoteHits -= a.RemoteHits
	b.RemoteErrors -= a.RemoteErrors
	return b
}
