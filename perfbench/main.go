// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload — the paper's figure sweeps (figs-paper), chargerd
// session churn at n=50k (serve-50k), or a Monte-Carlo robustness cell
// (robust-mc) — generated from a seed, checks that the outputs are
// correct, and prints one JSON result line: the end-to-end metrics when
// untraced, the per-layer metrics when traced.
//
//	perfbench --workload figs-paper --seed 1 --seconds 30 --trace 0
//
// The traced run times calls into each module's public functions from
// this package's own code and reads counters the program already
// exports; it adds nothing inside the program. README.md maps every
// metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are one run's parameters.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// toy shrinks every workload to a size the package tests can run in
	// seconds; the command line always runs the full size.
	toy bool
	// workers is the number of goroutines doing work: nproc.
	workers int
	log     io.Writer
}

// reading is one reported number.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int64
	checks            checks
	metrics           map[string]reading
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"figs-paper": runFigs,
	"serve-50k":  runServe,
	"robust-mc":  runRobust,
}

// endToEnd lists the untraced metrics every workload reports, with
// their units. README.md defines each per workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"units_per_s", "1/s"},
	{"plan_p50_ms", "ms"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"cost_ratio", "ratio"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: figs-paper, serve-50k or robust-mc")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: runtime.GOMAXPROCS(0), log: stderr}
	out, err := w(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, c := range out.checks {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, c)
	}
	res := result{Correct: len(out.checks) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operations attempted\n", *name)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is not finite\n", *name, k)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checks collects failed correctness checks.
type checks []string

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Sprintf(format, args...))
	}
}

// e2e assembles the end-to-end metric map from a workload's values,
// which must name every endToEnd metric.
func e2e(vals map[string]float64) map[string]reading {
	out := make(map[string]reading, len(endToEnd))
	for _, m := range endToEnd {
		v, ok := vals[m.name]
		if !ok {
			panic("perfbench: workload did not report " + m.name)
		}
		out[m.name] = reading{Value: v, Unit: m.unit}
	}
	return out
}

// setupMedian runs setup reps times and returns the median duration in
// seconds together with the last set-up's state.
func setupMedian[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var last T
	durs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		st, err := setup()
		if err != nil {
			return last, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		last = st
	}
	return last, percentile(durs, 0.5), nil
}

// percentile returns the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
