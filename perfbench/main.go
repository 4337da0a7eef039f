// Command perfbench is the repository's benchmark: two workloads over
// the nine compact regex engines, each driven from this one process.
//
//	perfbench --workload cold-compact|edit-delta \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics with tracing off; with
// --trace 1 it runs the same workload untraced and then traced, and
// reports the per-layer metrics plus the tracing overhead. Every run
// starts from a fresh store under .bench_build/ in the working directory
// and removes it on exit. Detail lines (per-group rows, the layer table,
// the tail percentile and its sample count) go to standard output; the
// last line is the JSON result. README.md in this directory explains the
// workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// flowEffort and flowSeed are the compile knobs of every generated
// request: the reduced annealing effort the repository's own benchmarks
// use, and one fixed flow seed, so that the workload seed changes which
// inputs arrive and never how a given input compiles.
const (
	flowEffort = 0.15
	flowSeed   = 1
)

// clients is the number of client goroutines and connections of the HTTP
// phases: the machine the benchmark was written for has two cores.
const clients = 2

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back to main: the op counts, whether
// every correctness check passed, and its metrics.
type outcome struct {
	attempted, failed int
	correct           bool
	metrics           map[string]metric
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed op and prints why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Printf("FAIL "+format+"\n", args...)
}

type workload struct {
	run func(seed int64, seconds float64) (*outcome, error)
	// layers runs the workload untraced and traced and returns the
	// per-layer metrics.
	layers func(seed int64, seconds float64) (*outcome, error)
}

var workloads = map[string]workload{
	"cold-compact": {run: runColdCompact, layers: layersColdCompact},
	"edit-delta":   {run: runEditDelta, layers: layersEditDelta},
}

func main() {
	name := flag.String("workload", "", "workload name: cold-compact or edit-delta")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (cold-compact, edit-delta), --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	run := w.run
	if *trace == 1 {
		run = w.layers
	}
	out, err := run(*seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.correct && out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printMetrics lists the metrics one per line, sorted, ahead of the JSON
// line.
func printMetrics(o *outcome) {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Printf("  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
