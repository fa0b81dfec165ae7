// Command perfbench is the repository's end-to-end benchmark. It drives
// the real IRS stack in one process over loopback HTTP — ledgers on the
// segment engine behind wire servers, an irs-proxy-configured proxy,
// and an irs-site-configured aggregator — with seeded open-loop load,
// checks every answer, and prints one JSON result line.
//
// Usage:
//
//	perfbench --workload browse|resolve|upload --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run; with --trace 1 it carries the per-layer metrics of a
// traced run. Lines before the result hold the full report: host and
// runtime block, the workload's own end-to-end metrics by name, stream
// counts, gate outcomes and the decision hash. The exit code is non-zero
// when a correctness gate fails or the run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workloads names the benchmark's workloads; see METRICS.md for why
// each exists and which layers it exercises and bypasses.
var workloads = []string{"browse", "resolve", "upload"}

// setupRepeats is how many times a run builds its stack; setup_s is the
// median, and the last build is the one measured.
const setupRepeats = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	// gen is the load generator's goroutine and connection budget,
	// summed over all of a workload's streams.
	gen int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// streamCount is one stream's attempted, succeeded and failed requests.
type streamCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// report is everything a run measured, printed ahead of the result.
type report struct {
	Host         hostBlock              `json:"host"`
	Runtime      runtimeWindow          `json:"runtime"`
	SetupS       []float64              `json:"setup_s"`
	EndToEnd     map[string]metric      `json:"end_to_end"`
	PerLayer     map[string]metric      `json:"per_layer,omitempty"`
	Samples      map[string]int         `json:"samples"`
	Streams      map[string]streamCount `json:"streams"`
	Gates        map[string]string      `json:"gates"`
	DecisionHash string                 `json:"decision_hash"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	rep report
	// e2e and layer hold the contract metrics (see BENCHMARK.json).
	e2e, layer map[string]float64
}

func (o *outcome) correct() bool {
	for _, v := range o.rep.Gates {
		if v != "ok" {
			return false
		}
	}
	return true
}

func (o *outcome) totals() (attempted, failed int) {
	for _, c := range o.rep.Streams {
		attempted += c.Attempted
		failed += c.Failed
	}
	return
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: browse, resolve or upload")
	flag.Int64Var(&cfg.seed, "seed", 42, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/tmp", "directory for ledger data (created, then emptied)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.gen = runtime.NumCPU()
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep, _ := json.MarshalIndent(out.rep, "", "  ")
	fmt.Printf("report %s\n", rep)
	res := contractResult(out, cfg.trace)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: a correctness gate failed; the numbers are void")
		os.Exit(1)
	}
}

func run(cfg config) (*outcome, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, fmt.Errorf("creating run directory: %w", err)
	}
	defer os.RemoveAll(dir)
	var out *outcome
	switch cfg.workload {
	case "browse", "resolve":
		out, err = runPages(cfg, dir)
	case "upload":
		out, err = runUpload(cfg, dir)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	out.rep.Host = newHostBlock(cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.rep.EndToEnd["peak_rss_mb"] = metric{out.e2e["peak_rss_mb"], "MB"}
	return out, nil
}

// Contract metric units; BENCHMARK.json lists the same names.
var e2eUnits = map[string]string{
	"setup_s":     "s",
	"peak_rss_mb": "MB",
	"op_ms_p50":   "ms",
}

func contractResult(out *outcome, trace bool) result {
	att, failed := out.totals()
	res := result{Correct: out.correct(), Attempted: max(att, 1), Failed: failed, Metrics: map[string]metric{}}
	if !trace {
		for name, unit := range e2eUnits {
			res.Metrics[name] = metric{finite(out.e2e[name]), unit}
		}
		return res
	}
	for _, name := range layerNames() {
		res.Metrics[name] = metric{finite(out.layer[name]), layerUnits[name]}
	}
	return res
}

// finite keeps the result valid JSON: a latency quantile that lands on
// a failed request is reported as an hour.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 3.6e6
	}
	return v
}

// measureSetup builds a stack setupRepeats times, closing all but the
// last, and returns the last with every build's wall time.
func measureSetup[T any](build func(i int) (T, error), close func(T)) (T, []float64, error) {
	var (
		st    T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		s, err := build(i)
		if err != nil {
			return st, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			close(s)
			// Hand the closed stack's memory back, so peak_rss_mb
			// measures one stack, not the repeats.
			debug.FreeOSMemory()
		} else {
			st = s
		}
	}
	return st, times, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func secs(f float64, seconds int) time.Duration {
	return time.Duration(f * float64(seconds) * float64(time.Second))
}
