package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// perLayer lists the traced metrics every workload reports, with their
// units. A layer a workload never calls reads 0. README.md gives the
// end-to-end metric each one explains.
var perLayer = []struct{ name, unit string }{
	{"wsn.generate.busy_s", "s"},
	{"experiment.prepare.busy_s", "s"},
	{"experiment.prepare.calls", "count"},
	{"core.plan_fixed.busy_s", "s"},
	{"core.plan_fixed.calls", "count"},
	{"core.classes.busy_s", "s"},
	{"core.var.busy_s", "s"},
	{"core.var.replans", "count"},
	{"core.greedy.busy_s", "s"},
	{"metric.grid.busy_s", "s"},
	{"rooted.msf.busy_s", "s"},
	{"rooted.msf.calls", "count"},
	{"rooted.msf.sensors", "count"},
	{"rooted.tours.busy_s", "s"},
	{"tsp.refine.busy_s", "s"},
	{"sim.run.self_s", "s"},
	{"sim.disturbed.busy_s", "s"},
	{"sim.disturbed.self_s", "s"},
	{"sim.redispatch.decide.busy_s", "s"},
	{"sim.redispatch.decide.calls", "count"},
	{"sim.redispatch.rescued", "count"},
	{"sim.redispatch.inserted", "count"},
	{"disturb.travel.busy_s", "s"},
	{"disturb.travel.calls", "count"},
	{"disturb.rate.busy_s", "s"},
	{"disturb.rate.calls", "count"},
	{"disturb.telemetry.busy_s", "s"},
	{"disturb.telemetry.calls", "count"},
	{"disturb.windows.busy_s", "s"},
	{"delta.apply.busy_s", "s"},
	{"delta.apply.calls", "count"},
	{"delta.replan.busy_s", "s"},
	{"delta.replan.calls", "count"},
	{"delta.patched_ratio", "ratio"},
	{"serve.parse.busy_s", "s"},
	{"serve.submit.busy_s", "s"},
	{"serve.encode.busy_s", "s"},
	{"serve.session_delta.busy_s", "s"},
	{"serve.plan_span_s", "s"},
	{"serve.session_replans", "count"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.shed", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage_ratio", "ratio"},
}

// recorder accumulates the traced run's spans and counts, keyed by
// metric name. A nil *recorder is the untraced run: every method is a
// no-op and start does not read the clock. Safe for concurrent use.
type recorder struct {
	mu   sync.Mutex
	vals map[string]float64
	// top is the summed duration of top-level spans: spans no other
	// span of this package encloses. capacity is the worker time of the
	// traced phases (see phase).
	top, capacity time.Duration
}

func newRecorder() *recorder { return &recorder{vals: map[string]float64{}} }

// start opens a span; pass the result to span.
func (r *recorder) start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// span closes a span begun at t0: it adds the elapsed time to
// <layer>.busy_s and one to <layer>.calls.
func (r *recorder) span(layer string, t0 time.Time) {
	if r == nil {
		return
	}
	r.addBusy(layer, time.Since(t0), 1)
}

// addTop adds d to the top-level span time.
func (r *recorder) addTop(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.top += d
	r.mu.Unlock()
}

// phase adds d of worker time to the traced phases: a goroutine doing
// traced work from its phase's start until it exits.
func (r *recorder) phase(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.capacity += d
	r.mu.Unlock()
}

// addBusy adds d and calls to <layer>.busy_s and <layer>.calls.
func (r *recorder) addBusy(layer string, d time.Duration, calls int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.vals[layer+".busy_s"] += d.Seconds()
	r.vals[layer+".calls"] += float64(calls)
	r.mu.Unlock()
}

// add adds v to the metric called name.
func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.vals[name] += v
	r.mu.Unlock()
}

// set overwrites the metric called name.
func (r *recorder) set(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.vals[name] = v
	r.mu.Unlock()
}

// layers returns every perLayer metric. Coverage is top-level span
// time over the worker time of the traced phases.
func (r *recorder) layers() map[string]reading {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.capacity > 0 {
		r.vals["trace.coverage_ratio"] = r.top.Seconds() / r.capacity.Seconds()
	}
	out := make(map[string]reading, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = reading{Value: r.vals[m.name], Unit: m.unit}
	}
	return out
}

// heapPeak samples the live heap every few milliseconds and keeps the
// maximum. It reads the heap the last GC marked live, not the objects
// allocated since, so the peak follows the workload's working set and
// not where a sample falls in the GC cycle. runtime/metrics reads it
// without stopping the world.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

const heapLive = "/gc/heap/live:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapLive}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read()
			case <-h.stop:
				read()
				return
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns the peak in MB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
