package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median returns the nearest-rank median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// latencies summarises one latency sample set.
type latencies struct {
	n        int
	p50, max float64 // ms
	// tail is the highest percentile with at least ten samples beyond it:
	// the value of nearest rank n-10, i.e. percentile tailPct. With ten
	// samples or fewer there is no such percentile and tail is the maximum.
	tail, tailPct float64
	beyond        int
}

func summarise(ds []time.Duration) latencies {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = ms(d)
	}
	sort.Float64s(s)
	l := latencies{n: len(s)}
	if l.n == 0 {
		return l
	}
	l.p50 = s[(l.n-1)/2]
	l.max = s[l.n-1]
	if l.n > 10 {
		l.tail = s[l.n-11]
		l.tailPct = 100 * float64(l.n-10) / float64(l.n)
		l.beyond = 10
	} else {
		l.tail, l.tailPct = l.max, 100
	}
	return l
}

func (l latencies) String() string {
	return fmt.Sprintf("n=%d p50=%.3fms tail=p%.2f=%.3fms (%d samples beyond) max=%.3fms",
		l.n, l.p50, l.tailPct, l.tail, l.beyond, l.max)
}

// usage is a process resource snapshot.
type usage struct {
	wall        time.Time
	cpu         time.Duration
	alloc       uint64
	numGC       uint32
	pauseTotal  uint64
	maxRSSBytes int64
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		wall:        time.Now(),
		cpu:         time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:       m.TotalAlloc,
		numGC:       m.NumGC,
		pauseTotal:  m.PauseTotalNs,
		maxRSSBytes: ru.Maxrss * 1024,
	}
}

// spent is the resource use between two snapshots.
type spent struct {
	wall, cpu time.Duration
	alloc     uint64
	gcs       uint32
	pause     time.Duration
}

func since(a usage) spent {
	b := snapshot()
	return spent{
		wall:  b.wall.Sub(a.wall),
		cpu:   b.cpu - a.cpu,
		alloc: b.alloc - a.alloc,
		gcs:   b.numGC - a.numGC,
		pause: time.Duration(b.pauseTotal - a.pauseTotal),
	}
}

func (a spent) add(b spent) spent {
	a.wall += b.wall
	a.cpu += b.cpu
	a.alloc += b.alloc
	a.gcs += b.gcs
	a.pause += b.pause
	return a
}

// perOp is the CPU time in ms and the allocation in KiB per op of
// resources spent on ops ops.
func (sp spent) perOp(ops int) (cpuMs, allocKB float64) {
	n := float64(max(ops, 1))
	return ms(sp.cpu) / n, float64(sp.alloc) / 1024 / n
}

// setCommon reports the resource metrics every workload shares.
func (o *outcome) setCommon(cpuMs, allocKB float64) {
	o.set("cpu_ms_per_op", "ms", cpuMs)
	o.set("alloc_kb_per_op", "KiB", allocKB)
	o.set("peak_rss_mb", "MiB", float64(snapshot().maxRSSBytes)/(1<<20))
	o.set("ok_pct", "%", 100*float64(o.attempted-o.failed)/float64(max(o.attempted, 1)))
}

// setRuntime reports the garbage collector's share of a traced phase.
func (o *outcome) setRuntime(sp spent, ops int) {
	o.set("runtime.gc_per_op", "1/op", float64(sp.gcs)/float64(max(ops, 1)))
	pause := 0.0
	if sp.gcs > 0 {
		pause = ms(sp.pause) / float64(sp.gcs)
	}
	o.set("runtime.gc_pause_ms", "ms", pause)
}

// scratchDir makes a fresh directory for one run's stores under
// .bench_build in the working directory; the caller removes it.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(d)
}
