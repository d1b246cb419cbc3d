package main

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/disturb"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/rooted"
	"repro/internal/sim"
	"repro/internal/wsn"
)

// The robust-mc cell: cmd/robust's defaults at one intensity and one
// slack, on a network large enough that disturbance draws dominate but
// still below metric.DenseLimit, so planning stays on the dense path.
// n=500 keeps a plan's distance matrix (2 MB) near the core's own
// cache: at n=1000 (8 MB) the plan time followed the shared host's
// memory traffic, and its median over a run moved by a third from run
// to run.
const (
	robustIntensity = 0.25
	robustEps       = 0.1
	robustSpeed     = 25000
	robustSetups    = 9
	// robustPlanReps is how often a policy run plans its schedule. The
	// planner is deterministic, so the repeats cost little beside the
	// simulation and give plan_p50_ms samples spread over the whole run:
	// a host's speed drifts over seconds, so a burst of plans measures
	// the moment it ran in.
	robustPlanReps = 8
	// robustTracedUnits is the fixed script the traced run repeats:
	// both policies of the first two replications.
	robustTracedUnits = 4
)

// ROADMAP gates on the cell. Reduction and deaths are checked on every
// run. Inflation is reported as cost_ratio and warned about, not
// checked: on this cell it exceeds the gate for most seeds (README.md).
const (
	gateReduction = 100
	gateInflation = 0.15
)

// robustScale sizes the cell: reps replications of an n-sensor,
// q-charger network over period T at decision granularity dt.
type robustScale struct {
	n, q, reps int
	T, dt      float64
}

var (
	robustFull = robustScale{n: 500, q: 10, reps: 8, T: 120, dt: 1}
	robustToy  = robustScale{n: 300, q: 5, reps: 2, T: 60, dt: 1}
)

// robustRep is one replication's inputs: the topology and the
// disturbance seed every policy of the replication shares.
type robustRep struct {
	net     *wsn.Network
	model   energy.Model
	disturb *rng.Source
	cfg     sim.Config
}

// policyRun is one policy run's output: its plan's cost and the time
// of each planning, and the simulation's result and time.
type policyRun struct {
	res               sim.Result
	planned           float64
	rescued, inserted int
	plans             []time.Duration
	dur               time.Duration
	err               error
}

func runRobust(o options) (*outcome, error) {
	sc := robustFull
	if o.toy {
		sc = robustToy
	}
	root := rng.New(o.seed)
	if o.trace {
		return robustTraced(o, root, sc)
	}
	heap := startHeapPeak()
	reps, setupS, err := setupMedian(robustSetups, func() ([]robustRep, error) { return robustSetup(root, sc, nil) })
	if err != nil {
		heap.finish()
		return nil, err
	}
	reg := obs.NewRegistry()
	runs, wall := robustLoop(o, reps, reg, nil, -1)
	peak := heap.finish()

	out := &outcome{}
	var lat, planMs []float64
	first := make(map[int]*policyRun)
	for u := range runs {
		r := &runs[u]
		out.attempted++
		if r.err != nil {
			out.failed++
			out.checks.expect(false, "unit %d: %v", u, r.err)
			continue
		}
		lat = append(lat, ms(r.dur))
		for _, d := range r.plans {
			planMs = append(planMs, ms(d))
		}
		key := u % (2 * len(reps))
		if f, ok := first[key]; ok {
			out.checks.expect(sameRun(f, r), "unit %d repeats unit %d's inputs but its outcome differs", u, key)
		} else {
			first[key] = r
		}
	}
	ratio := robustGates(&out.checks, reps, first, o.log)
	out.metrics = e2e(map[string]float64{
		"setup_s":      setupS,
		"peak_heap_mb": peak,
		"units_per_s":  float64(len(lat)) / wall.Seconds(),
		"plan_p50_ms":  percentile(planMs, 0.5),
		"op_p50_ms":    percentile(lat, 0.5),
		"op_p99_ms":    percentile(lat, 0.99),
		"cost_ratio":   ratio,
	})
	return out, nil
}

// robustSetup generates the replications' topologies.
func robustSetup(root *rng.Source, sc robustScale, rec *recorder) ([]robustRep, error) {
	reps := make([]robustRep, sc.reps)
	for i := range reps {
		t0 := rec.start()
		net, err := wsn.Generate(root.Split(1, uint64(i)), wsn.GenConfig{
			N: sc.n, Q: sc.q, Dist: wsn.LinearDist{TauMin: 4, TauMax: 40, Sigma: 1},
		})
		rec.span("wsn.generate", t0)
		if err != nil {
			return nil, err
		}
		reps[i] = robustRep{net: net, model: energy.NewFixed(net), disturb: root.Split(2, 0, uint64(i)), cfg: sim.Config{T: sc.T, Dt: sc.dt}}
	}
	return reps, nil
}

// robustLoop runs policy-run units on o.workers goroutines: unit u is
// policy u%2 (0 the open-loop replay, 1 the re-dispatching robust
// variant) of replication (u/2) mod len(reps). With limit < 0 it starts
// units until o.seconds have passed; otherwise it runs exactly limit
// units. It returns every unit's outcome and the wall time.
func robustLoop(o options, reps []robustRep, reg *obs.Registry, rec *recorder, limit int) ([]policyRun, time.Duration) {
	var mu sync.Mutex
	var runs []policyRun
	units := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { rec.phase(time.Since(start)) }()
			scratch := sim.NewScratch()
			for u := range units {
				r := robustUnit(reps[(u/2)%len(reps)], u%2, reg, scratch, rec)
				mu.Lock()
				runs[u] = r
				mu.Unlock()
			}
		}()
	}
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for u := 0; limit < 0 && time.Now().Before(deadline) || u < limit; u++ {
		mu.Lock()
		runs = append(runs, policyRun{})
		mu.Unlock()
		units <- u
	}
	close(units)
	wg.Wait()
	return runs, time.Since(start)
}

// robustUnit plans (robustPlanReps times, which must agree) and
// simulates one policy over one replication's disturbance, as
// cmd/robust's runCell does: policy 0 replays the plan open-loop,
// policy 1 re-dispatches over the ε-slacked plan. Traced,
// the disturbance facets and the policy are wrapped in timing
// decorators that keep the simulator's paths: the batch rate query and
// Redispatch's schedule estimator.
func robustUnit(rep robustRep, policy int, reg *obs.Registry, scratch *sim.Scratch, rec *recorder) policyRun {
	var out policyRun
	var plan *core.FixedPlan
	for i := 0; i < robustPlanReps; i++ {
		tp := time.Now()
		p, err := core.PlanFixed(rep.net, rep.cfg.T, core.FixedOptions{Slack: []float64{0, robustEps}[policy], AlignTau1: rep.cfg.Dt})
		out.plans = append(out.plans, time.Since(tp))
		if err != nil {
			out.err = err
			return out
		}
		if plan != nil && p.Cost() != plan.Cost() { //lint:allow floateq determinism check
			out.err = fmt.Errorf("planning again gave cost %v, not %v", p.Cost(), plan.Cost())
			return out
		}
		plan = p
	}
	out.planned = plan.Cost()
	acc := &runAcc{}
	model := disturb.Standard(rep.disturb, robustIntensity, disturb.DefaultParams())
	var pol sim.Policy = &sim.ScheduleReplay{Schedule: plan.Schedule}
	var redispatch *sim.Redispatch
	if policy == 1 {
		redispatch = &sim.Redispatch{Inner: pol}
		pol = redispatch
	}
	if rec != nil {
		model = timedModel(model, acc)
		pol = &timedPolicy{Policy: pol, acc: acc}
	}
	d := sim.Disturbed{Model: model, Speed: robustSpeed, Obs: reg, Scratch: scratch}
	t0 := time.Now()
	out.res, out.err = sim.RunDisturbed(rep.net, rep.model, pol, rep.cfg, d)
	out.dur = time.Since(t0)
	if redispatch != nil {
		out.rescued, out.inserted = redispatch.Rescued, redispatch.Inserted
	}
	if rec != nil {
		var planned time.Duration
		for _, d := range out.plans {
			planned += d
		}
		rec.addBusy("core.plan_fixed", planned, int64(len(out.plans)))
		rec.addTop(planned + out.dur)
		rec.addBusy("sim.disturbed", out.dur, 1)
		rec.add("sim.disturbed.self_s", (out.dur - acc.draws() - acc.decideSelf).Seconds())
		for _, f := range []struct {
			name string
			s    *stat
		}{{"disturb.travel", &acc.travel}, {"disturb.rate", &acc.rate}, {"disturb.telemetry", &acc.tele}, {"disturb.windows", &acc.windows}} {
			rec.addBusy(f.name, f.s.busy, f.s.calls)
		}
		if redispatch != nil {
			rec.addBusy("sim.redispatch.decide", acc.decide, acc.decideCalls)
			rec.add("sim.redispatch.rescued", float64(out.rescued))
			rec.add("sim.redispatch.inserted", float64(out.inserted))
		}
	}
	return out
}

// sameRun reports whether two runs of the same inputs agree on every
// deterministic output.
func sameRun(a, b *policyRun) bool {
	ra, rb := a.res, b.res
	ra.Schedule, rb.Schedule = nil, nil
	return reflect.DeepEqual(ra, rb) && a.res.Schedule.Cost() == b.res.Schedule.Cost() && //lint:allow floateq determinism check
		a.rescued == b.rescued && a.inserted == b.inserted
}

// robustGates folds each replication's first runs into cmd/robust's
// replay and redispatch rows and checks the ROADMAP gates: violation
// reduction at least gateReduction and no robust deaths. It returns
// robust driven cost over baseline planned cost (1 + inflation),
// warning when inflation exceeds gateInflation.
func robustGates(c *checks, reps []robustRep, first map[int]*policyRun, log io.Writer) float64 {
	var baseViol, baseGaps, robViol, robGaps, robDeaths, rows int
	var basePlanned, robDriven float64
	for i := range reps {
		b, r := first[2*i], first[2*i+1]
		if b == nil || r == nil {
			continue
		}
		n := reps[i].net.N()
		rows++
		baseViol += b.res.GapViolations
		baseGaps += b.res.Charges + n
		basePlanned += b.planned
		robViol += r.res.GapViolations
		robGaps += r.res.Charges + n
		robDeaths += r.res.Deaths
		robDriven += r.res.DrivenCost
	}
	c.expect(rows > 0, "no replication completed both policies")
	if rows == 0 {
		return 0
	}
	vRob := math.Max(float64(robViol), 0.5)
	reduction := (float64(baseViol) / float64(baseGaps)) / (vRob / float64(robGaps))
	ratio := robDriven / basePlanned
	fmt.Fprintf(log, "perfbench: robust-mc: %d replications: violation reduction %.1fx (%d baseline violations), %d robust deaths, cost inflation %.3f\n",
		rows, reduction, baseViol, robDeaths, ratio-1)
	c.expect(reduction >= gateReduction, "violation reduction %.1fx < %dx", reduction, gateReduction)
	c.expect(robDeaths == 0, "%d robust deaths", robDeaths)
	if ratio-1 > gateInflation {
		fmt.Fprintf(log, "perfbench: robust-mc: warning: cost inflation %.3f above the ROADMAP's %.2f\n", ratio-1, gateInflation)
	}
	return ratio
}

// robustTraced runs a fixed script of units untraced and then traced,
// checks the two agree exactly (results and the robustness counter
// text), and reports the traced phase's per-layer metrics.
func robustTraced(o options, root *rng.Source, sc robustScale) (*outcome, error) {
	rec := newRecorder()
	reps, err := robustSetup(root, sc, rec)
	if err != nil {
		return nil, err
	}
	limit := min(robustTracedUnits, 2*len(reps))
	regPlain, regTraced := obs.NewRegistry(), obs.NewRegistry()
	plain, wallPlain := robustLoop(o, reps, regPlain, nil, limit)
	traced, wallTraced := robustLoop(o, reps, regTraced, rec, limit)

	out := &outcome{}
	for u := range traced {
		out.attempted++
		if traced[u].err != nil || plain[u].err != nil {
			out.failed++
			out.checks.expect(false, "unit %d: %v / %v", u, plain[u].err, traced[u].err)
			continue
		}
		out.checks.expect(sameRun(&plain[u], &traced[u]), "unit %d: traced outcome differs from untraced", u)
	}
	var a, b strings.Builder
	if err := regPlain.WriteText(&a); err != nil {
		return nil, err
	}
	if err := regTraced.WriteText(&b); err != nil {
		return nil, err
	}
	out.checks.expect(a.String() == b.String(), "traced robustness counters differ from untraced")
	rec.set("trace.overhead_ratio", wallTraced.Seconds()/wallPlain.Seconds())
	out.metrics = rec.layers()
	return out, nil
}

// stat is one timed call site's busy time and call count.
type stat struct {
	busy  time.Duration
	calls int64
}

func (s *stat) since(t0 time.Time) {
	s.busy += time.Since(t0)
	s.calls++
}

// runAcc accumulates one simulated run's child spans. A run executes on
// one goroutine, so it needs no locking.
type runAcc struct {
	travel, rate, tele, windows stat
	decide, decideSelf          time.Duration
	decideCalls                 int64
}

func (a *runAcc) draws() time.Duration {
	return a.travel.busy + a.rate.busy + a.tele.busy + a.windows.busy
}

// timedPolicy times Decide on the policy it wraps. It wraps Redispatch
// as a whole, never its Inner, so Redispatch still sees the schedule's
// NextChargeEstimator.
type timedPolicy struct {
	sim.Policy
	acc *runAcc
}

// Decide times the wrapped Decide. Draws it triggers (Env.ResidualLife
// integrates lazily) are child spans, so only the rest counts as its
// self time.
func (p *timedPolicy) Decide(env *sim.Env, t float64) ([]rooted.Tour, error) {
	draws := p.acc.draws()
	t0 := time.Now()
	tours, err := p.Policy.Decide(env, t)
	d := time.Since(t0)
	p.acc.decide += d
	p.acc.decideSelf += d - (p.acc.draws() - draws)
	p.acc.decideCalls++
	return tours, err
}

// timedModel rebuilds the Compose that disturb.Standard returns with
// every facet timed; any other model is returned unchanged.
func timedModel(m disturb.Model, acc *runAcc) disturb.Model {
	c, ok := m.(disturb.Compose)
	if !ok {
		return m
	}
	out := make(disturb.Compose, len(c))
	for i, f := range c {
		tf := &timedFacet{Model: f, kind: facetKind(f), acc: acc}
		if mul, ok := f.(disturb.RateMultiplier); ok {
			out[i] = &timedBatchFacet{timedFacet: tf, mul: mul}
		} else {
			out[i] = tf
		}
	}
	return out
}

// Facet kinds: the query each of disturb.Standard's facets answers.
const (
	kindTravel = iota
	kindWindows
	kindRate
	kindTelemetry
)

func facetKind(f disturb.Model) int {
	switch f.(type) {
	case *disturb.TravelNoise:
		return kindTravel
	case *disturb.Breakdowns:
		return kindWindows
	case *disturb.Drift:
		return kindRate
	case *disturb.Telemetry:
		return kindTelemetry
	default:
		panic(fmt.Sprintf("perfbench: unknown disturbance facet %T", f))
	}
}

// timedFacet times the query its facet answers and passes every other
// query straight through.
type timedFacet struct {
	disturb.Model
	kind int
	acc  *runAcc
}

// TravelFactor implements disturb.Model, timed on the travel facet.
func (f *timedFacet) TravelFactor(epoch, tour, leg int) float64 {
	if f.kind != kindTravel {
		return f.Model.TravelFactor(epoch, tour, leg)
	}
	t0 := time.Now()
	v := f.Model.TravelFactor(epoch, tour, leg)
	f.acc.travel.since(t0)
	return v
}

// RateFactor implements disturb.Model, timed on the rate facet.
func (f *timedFacet) RateFactor(i int, t float64) float64 {
	if f.kind != kindRate {
		return f.Model.RateFactor(i, t)
	}
	t0 := time.Now()
	v := f.Model.RateFactor(i, t)
	f.acc.rate.since(t0)
	return v
}

// ObsDelay implements disturb.Model, timed on the telemetry facet.
func (f *timedFacet) ObsDelay(i, epoch int) int {
	if f.kind != kindTelemetry {
		return f.Model.ObsDelay(i, epoch)
	}
	t0 := time.Now()
	v := f.Model.ObsDelay(i, epoch)
	f.acc.tele.since(t0)
	return v
}

// Windows implements disturb.Model, timed on the breakdown facet.
func (f *timedFacet) Windows(q int, T float64) []disturb.Window {
	if f.kind != kindWindows {
		return f.Model.Windows(q, T)
	}
	t0 := time.Now()
	v := f.Model.Windows(q, T)
	f.acc.windows.since(t0)
	return v
}

// timedBatchFacet is a timedFacet over a facet with a batch rate path;
// it forwards MulRateFactors so disturb.RateFactors still takes it.
type timedBatchFacet struct {
	*timedFacet
	mul disturb.RateMultiplier
}

// MulRateFactors implements disturb.RateMultiplier, timed on the rate
// facet.
func (f *timedBatchFacet) MulRateFactors(dst []float64, t float64) {
	if f.kind != kindRate {
		f.mul.MulRateFactors(dst, t)
		return
	}
	t0 := time.Now()
	f.mul.MulRateFactors(dst, t)
	f.acc.rate.since(t0)
}
