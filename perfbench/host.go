package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// Runtime signals recorded next to the request metrics, so a latency
// tail can be read against GC pauses and scheduler delay.
const (
	mSchedLat  = "/sched/latencies:seconds"
	mGCPauses  = "/sched/pauses/total/gc:seconds"
	mAllocs    = "/gc/heap/allocs:bytes"
	mHeapLive  = "/memory/classes/heap/objects:bytes"
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mGoroutine = "/sched/goroutines:goroutines"
)

// runtimeMark is a point-in-time reading of the process; the
// difference of two marks describes the work between them.
type runtimeMark struct {
	at      time.Time
	cpu     time.Duration
	samples []metrics.Sample
}

func markRuntime() runtimeMark {
	s := []metrics.Sample{
		{Name: mSchedLat}, {Name: mGCPauses}, {Name: mAllocs},
		{Name: mHeapLive}, {Name: mGCCycles}, {Name: mGoroutine},
	}
	metrics.Read(s)
	return runtimeMark{at: time.Now(), cpu: cpuTime(), samples: s}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (m runtimeMark) value(name string) metrics.Value {
	for _, s := range m.samples {
		if s.Name == name {
			return s.Value
		}
	}
	return metrics.Value{}
}

func (m runtimeMark) uint(name string) uint64 {
	v := m.value(name)
	if v.Kind() != metrics.KindUint64 {
		return 0
	}
	return v.Uint64()
}

// histDelta is the bucket-count difference of one runtime histogram
// between two marks.
type histDelta struct {
	Buckets []float64 `json:"buckets_s"`
	Counts  []uint64  `json:"counts"`
}

func (m runtimeMark) histSince(prev runtimeMark, name string) histDelta {
	cur, old := m.value(name), prev.value(name)
	if cur.Kind() != metrics.KindFloat64Histogram {
		return histDelta{}
	}
	h := cur.Float64Histogram()
	var base []uint64
	if old.Kind() == metrics.KindFloat64Histogram {
		base = old.Float64Histogram().Counts
	}
	var d histDelta
	for i, c := range h.Counts {
		if i < len(base) {
			c -= base[i]
		}
		if c == 0 {
			continue
		}
		// Report each non-empty bucket by its upper bound.
		d.Buckets = append(d.Buckets, h.Buckets[i+1])
		d.Counts = append(d.Counts, c)
	}
	return d
}

// quantileUs reads a quantile from a bucketed delta, as the bucket's
// upper bound in microseconds.
func (d histDelta) quantileUs(q float64) float64 {
	var total uint64
	for _, c := range d.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var run uint64
	for i, c := range d.Counts {
		run += c
		if run >= rank {
			b := d.Buckets[i]
			if math.IsInf(b, 1) && i > 0 {
				b = d.Buckets[i-1]
			}
			return b * 1e6
		}
	}
	return 0
}

// runtimeWindow summarises the process between two marks.
type runtimeWindow struct {
	WallS        float64 `json:"wall_s"`
	CPUBusyFrac  float64 `json:"cpu_busy_frac"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	GCCycles     uint64  `json:"gc_cycles"`
	HeapLiveMB   float64 `json:"heap_live_mb"`
	Goroutines   uint64  `json:"goroutines"`
	GCPauseUsP99 float64 `json:"gc_pause_us_p99"`
	SchedUsP99   float64 `json:"sched_latency_us_p99"`
	// LatenessMsP99 is how late the generator sent the fixed-rate
	// phase's requests, at the 99th percentile.
	LatenessMsP99 float64   `json:"generator_lateness_ms_p99"`
	GCPauses      histDelta `json:"gc_pause_hist"`
	SchedLat      histDelta `json:"sched_latency_hist"`
}

func windowSince(start runtimeMark) runtimeWindow {
	end := markRuntime()
	wall := end.at.Sub(start.at)
	w := runtimeWindow{
		WallS:      wall.Seconds(),
		AllocBytes: end.uint(mAllocs) - start.uint(mAllocs),
		GCCycles:   end.uint(mGCCycles) - start.uint(mGCCycles),
		HeapLiveMB: float64(end.uint(mHeapLive)) / (1 << 20),
		Goroutines: end.uint(mGoroutine),
		GCPauses:   end.histSince(start, mGCPauses),
		SchedLat:   end.histSince(start, mSchedLat),
	}
	if wall > 0 {
		w.CPUBusyFrac = float64(end.cpu-start.cpu) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
	}
	w.GCPauseUsP99 = w.GCPauses.quantileUs(0.99)
	w.SchedUsP99 = w.SchedLat.quantileUs(0.99)
	return w
}

// hostBlock identifies where and how a result was measured.
type hostBlock struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func newHostBlock(workload string, seed int64, seconds int, trace bool) hostBlock {
	return hostBlock{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
		Workload:   workload,
		Seconds:    seconds,
		Trace:      trace,
	}
}

// commit names the source revision: IRS_BENCH_COMMIT when the launcher
// could read one, else the VCS stamp of the build, else "unknown" (a
// plain source checkout has neither).
func commit() string {
	if c := os.Getenv("IRS_BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
