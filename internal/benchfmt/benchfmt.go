// Package benchfmt parses `go test -bench` output into a stable JSON
// baseline format and compares two baselines for performance
// regressions. It backs cmd/bench and scripts/bench.sh: a captured
// baseline (BENCH_<label>.json) is committed, and CI or a developer run
// fails when a benchmark slows down by more than a threshold.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated measurement. When a raw capture
// repeats a benchmark (-count > 1), Runs counts the repetitions and
// each per-op field keeps its own median across the runs (mean of the
// middle two when Runs is even) — unlike a single sample or the
// minimum, the median is robust against both one noisy-slow and one
// lucky-fast run, so the regression gate stops firing on scheduler
// noise. Iterations is taken from the ns/op-median run.
type Result struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// HeapBytes is the peak-proxy heap level a large-n capture reports
	// ("heap-bytes" unit, emitted by cmd/bench -large): the runtime's
	// heap footprint (MemStats.HeapSys) right after the measured plan,
	// the figure the <1 GB large-n memory budget is checked against.
	HeapBytes float64 `json:"heap_bytes,omitempty"`
}

// SchemaVersion is the current baseline-file schema. Version 2 added
// the schema/label header and per-result heap_bytes; version-0/1 files
// (no schema_version field) still read fine — the new fields are
// additive and omitempty.
const SchemaVersion = 2

// File is the JSON baseline: capture environment plus results.
type File struct {
	// SchemaVersion stamps the baseline layout (see SchemaVersion);
	// 0 in files captured before the field existed.
	SchemaVersion int `json:"schema_version,omitempty"`
	// Label names the capture (the PR tag: "seed", "pr2", "pr5", ...),
	// so a directory of BENCH_*.json files stays self-describing.
	Label  string `json:"label,omitempty"`
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Go is the toolchain that captured the baseline
	// (runtime.Version()); go test does not print it, so cmd/bench
	// fills it in at capture time.
	Go      string   `json:"go,omitempty"`
	Results []Result `json:"benchmarks"`
}

// Parse reads raw `go test -bench` output and aggregates it into a
// File. Benchmark lines look like
//
//	BenchmarkFig1aLinearN  3  10122907 ns/op  11045362 B/op  38204 allocs/op
//
// possibly with a -4 style GOMAXPROCS suffix on the name; header lines
// (goos:, goarch:, pkg:, cpu:) fill the environment fields. Lines that
// are neither are ignored, so `go test` chatter (PASS, ok, warmup
// output) is harmless.
func Parse(r io.Reader) (File, error) {
	var f File
	byName := map[string][]Result{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			f.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			f.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			f.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			f.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, err := parseLine(line)
		if err != nil {
			return File{}, err
		}
		if _, ok := byName[res.Name]; !ok {
			order = append(order, res.Name)
		}
		byName[res.Name] = append(byName[res.Name], res)
	}
	if err := sc.Err(); err != nil {
		return File{}, err
	}
	for _, name := range order {
		f.Results = append(f.Results, aggregate(byName[name]))
	}
	return f, nil
}

// aggregate folds one benchmark's repeated runs into a single Result:
// field-wise medians, with Iterations taken from the ns/op-median run.
func aggregate(samples []Result) Result {
	res := samples[0]
	res.Runs = len(samples)
	if len(samples) == 1 {
		return res
	}
	ns := make([]float64, len(samples))
	bytes := make([]float64, len(samples))
	allocs := make([]float64, len(samples))
	heap := make([]float64, len(samples))
	for i, s := range samples {
		ns[i] = s.NsPerOp
		bytes[i] = s.BytesPerOp
		allocs[i] = s.AllocsPerOp
		heap[i] = s.HeapBytes
	}
	sort.Float64s(ns)
	res.NsPerOp = median(ns)
	res.BytesPerOp = median(bytes)
	res.AllocsPerOp = median(allocs)
	res.HeapBytes = median(heap)
	// The run whose ns/op sits closest to the median keeps its
	// iteration count, so Iterations stays representative.
	mid := samples[0]
	for _, s := range samples[1:] {
		if math.Abs(s.NsPerOp-res.NsPerOp) < math.Abs(mid.NsPerOp-res.NsPerOp) {
			mid = s
		}
	}
	res.Iterations = mid.Iterations
	return res
}

// median returns the middle value of xs (mean of the two middle values
// when len(xs) is even). xs may arrive unsorted; it is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// parseLine parses one benchmark result line.
func parseLine(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, fmt.Errorf("benchfmt: short benchmark line %q", line)
	}
	name := fields[0]
	// Strip the GOMAXPROCS suffix (BenchmarkX-8) so baselines captured
	// at different -cpu settings still pair up by benchmark.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return Result{}, fmt.Errorf("benchfmt: bad iteration count in %q: %v", line, err)
	}
	res := Result{Name: name, Iterations: iters}
	// Remaining fields come in "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("benchfmt: bad value in %q: %v", line, err)
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		case "heap-bytes":
			res.HeapBytes = v
		}
	}
	if res.NsPerOp == 0 {
		return Result{}, fmt.Errorf("benchfmt: no ns/op in %q", line)
	}
	return res, nil
}

// Write serializes f as indented JSON.
func Write(w io.Writer, f File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadFile deserializes a baseline written by Write.
func ReadFile(r io.Reader) (File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return File{}, fmt.Errorf("benchfmt: %v", err)
	}
	return f, nil
}

// Delta is one benchmark's comparison between a baseline and a current
// capture. Ratio is current/baseline ns/op: 1.10 means 10% slower,
// 0.50 means twice as fast. When both captures carry a heap_bytes
// sample the heap fields mirror the ns fields (HeapRatio 0 otherwise);
// Regression flags either axis over its threshold. Missing marks a
// baseline benchmark the current capture lacks; it is always a
// Regression, and only Name and BaseNs are set.
type Delta struct {
	Name       string
	BaseNs     float64
	CurNs      float64
	Ratio      float64
	BaseHeap   float64
	CurHeap    float64
	HeapRatio  float64
	NsRegr     bool
	HeapRegr   bool
	Missing    bool
	Regression bool
}

// Compare pairs two baselines by benchmark name and flags every
// benchmark whose ns/op grew by more than threshold (0.15 = fail at
// >15% slower) or whose heap_bytes grew by more than heapThreshold.
// The axes gate independently — a memory regression no longer hides
// behind a speedup, which is exactly how a dropped arena reuse would
// present. Heap is only compared where both files have a sample, so
// ns-only baselines keep working. A baseline benchmark with no match in
// the current capture comes back Missing and flagged: a gated benchmark
// that was renamed or deleted must fail the gate, not pass it silently.
// Benchmarks only the current capture has are skipped — adding one is
// not a regression. Deltas come back sorted worst first: missing rows,
// then by descending worst-axis ratio.
func Compare(base, cur File, threshold, heapThreshold float64) []Delta {
	curBy := map[string]Result{}
	for _, r := range cur.Results {
		curBy[r.Name] = r
	}
	var out []Delta
	for _, b := range base.Results {
		c, ok := curBy[b.Name]
		if !ok {
			out = append(out, Delta{Name: b.Name, BaseNs: b.NsPerOp, Missing: true, Regression: true})
			continue
		}
		d := Delta{
			Name:   c.Name,
			BaseNs: b.NsPerOp,
			CurNs:  c.NsPerOp,
			Ratio:  c.NsPerOp / b.NsPerOp,
		}
		d.NsRegr = d.Ratio > 1+threshold
		if b.HeapBytes > 0 && c.HeapBytes > 0 {
			d.BaseHeap = b.HeapBytes
			d.CurHeap = c.HeapBytes
			d.HeapRatio = c.HeapBytes / b.HeapBytes
			d.HeapRegr = d.HeapRatio > 1+heapThreshold
		}
		d.Regression = d.NsRegr || d.HeapRegr
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].worst() > out[j].worst() })
	return out
}

// worst returns the delta's most regressed axis ratio; a missing row
// ranks above any ratio.
func (d Delta) worst() float64 {
	if d.Missing {
		return math.Inf(1)
	}
	if d.HeapRatio > d.Ratio {
		return d.HeapRatio
	}
	return d.Ratio
}

// AnyRegression reports whether any delta is flagged.
func AnyRegression(deltas []Delta) bool {
	for _, d := range deltas {
		if d.Regression {
			return true
		}
	}
	return false
}
