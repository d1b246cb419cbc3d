package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/rooted"
)

// The figs-paper workload: every cell of these sweeps at the paper's
// T=1000, cells through experiment.PrepareInto and Prepared.Run on
// o.workers goroutines, as cmd/figures runs them.
var figIDs = []string{"1a", "3", "ablation-tours"}

const (
	figSetups = 9
	// rerunEvery samples the cells the worker-count check reruns; all of
	// them would double the run.
	rerunEvery = 5
)

// figsScale sizes a pass: the swept x values (network sizes), the
// topologies per point, and T (0 is the paper's 1000).
type figsScale struct {
	xs         []float64
	topologies int
	T          float64
}

var (
	figsFull = figsScale{xs: []float64{100, 200, 300, 400, 500}, topologies: 3}
	figsToy  = figsScale{xs: []float64{20, 40}, topologies: 1, T: 60}
)

// figCell is one (figure, x, topology) sweep cell with its parameters.
type figCell struct {
	fig   string
	x     float64
	topo  int
	p     experiment.Params
	algos []string
}

// cellRun is one cell's outcomes, one per algorithm.
type cellRun struct {
	cell *figCell
	outs []experiment.Outcome
	dur  time.Duration
	err  error
}

// figCells lays out one pass: every cell of the sweeps, with topology
// indices pass·topologies onward, so each pass plans fresh networks.
// Each cell's seed is split from the workload seed by its (figure, x,
// topology) label.
func figCells(seed uint64, sc figsScale, pass int) []figCell {
	root := rng.New(seed)
	var cells []figCell
	for fi, id := range figIDs {
		algos, err := experiment.FigureAlgorithms(id)
		if err != nil {
			panic(err) // figIDs are fixed figure ids
		}
		for _, x := range sc.xs {
			for t := 0; t < sc.topologies; t++ {
				topo := pass*sc.topologies + t
				p, err := experiment.FigureParams(id, experiment.Config{T: sc.T}, x, topo)
				if err != nil {
					panic(err)
				}
				p.Seed = root.Split(uint64(fi), math.Float64bits(x), uint64(topo)).Seed()
				cells = append(cells, figCell{fig: id, x: x, topo: topo, p: p, algos: algos})
			}
		}
	}
	return cells
}

// figsSetup lays out the first pass and warms one scratch arena per
// worker on its largest cell, so the measured passes rebuild in place.
func figsSetup(o options, sc figsScale) ([]*experiment.Scratch, error) {
	cells := figCells(o.seed, sc, 0)
	largest := 0
	for i, c := range cells {
		if c.p.N > cells[largest].p.N {
			largest = i
		}
	}
	arenas := make([]*experiment.Scratch, o.workers)
	for w := range arenas {
		arenas[w] = &experiment.Scratch{}
		pr, err := experiment.PrepareInto(cells[largest].p, arenas[w])
		if err != nil {
			return nil, err
		}
		pr.Lists()
	}
	return arenas, nil
}

func runFigs(o options) (*outcome, error) {
	sc := figsFull
	if o.toy {
		sc = figsToy
	}
	if o.trace {
		return figsTraced(o, sc)
	}
	heap := startHeapPeak()
	arenas, setupS, err := setupMedian(figSetups, func() ([]*experiment.Scratch, error) { return figsSetup(o, sc) })
	if err != nil {
		heap.finish()
		return nil, err
	}
	runs, wall := figsLoop(o, sc, arenas, nil, -1)
	peak := heap.finish()

	out := &outcome{}
	var lat, planMs []float64
	for i := range runs {
		r := &runs[i]
		out.attempted++
		if r.err != nil {
			out.failed++
			out.checks.expect(false, "%s: %v", r.cell.label(), r.err)
			continue
		}
		lat = append(lat, ms(r.dur))
		for ai, a := range r.cell.algos {
			out.checks.expect(r.outs[ai].Deaths == 0, "%s %s: %d deaths", r.cell.label(), a, r.outs[ai].Deaths)
			if a == experiment.AlgoMTD {
				planMs = append(planMs, r.outs[ai].PlanMillis)
			}
		}
	}
	ratio := figsChecks(&out.checks, runs, len(figCells(o.seed, sc, 0)))
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

func (c *figCell) label() string {
	return fmt.Sprintf("fig %s x=%g topo=%d", c.fig, c.x, c.topo)
}

// figsLoop runs whole passes on one goroutine per arena. With passes <
// 0 it starts passes until o.seconds have gone; otherwise it runs
// exactly that many. It returns every cell's run, in start order, and
// the wall time.
func figsLoop(o options, sc figsScale, arenas []*experiment.Scratch, rec *recorder, passes int) ([]cellRun, time.Duration) {
	var mu sync.Mutex
	var runs []cellRun
	units := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for _, ws := range arenas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { rec.phase(time.Since(start)) }()
			for u := range units {
				mu.Lock()
				cell := runs[u].cell
				mu.Unlock()
				r := runCell(cell, ws, rec)
				mu.Lock()
				runs[u] = r
				mu.Unlock()
			}
		}()
	}
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for pass := 0; passes < 0 && (pass == 0 || time.Now().Before(deadline)) || pass < passes; pass++ {
		cells := figCells(o.seed, sc, pass)
		for i := range cells {
			mu.Lock()
			u := len(runs)
			runs = append(runs, cellRun{cell: &cells[i]})
			mu.Unlock()
			units <- u
		}
	}
	close(units)
	wg.Wait()
	return runs, time.Since(start)
}

// runCell prepares one cell and runs each of its algorithms. Traced, it
// generates the topology and prepares the metric as two timed calls
// (PrepareInto is exactly Params.Network then PrepareNetInto) and books
// each outcome's own phase timings to the layer that spent them.
func runCell(c *figCell, ws *experiment.Scratch, rec *recorder) cellRun {
	t0 := time.Now()
	var pr *experiment.Prepared
	if rec == nil {
		var err error
		if pr, err = experiment.PrepareInto(c.p, ws); err != nil {
			return cellRun{cell: c, err: err}
		}
	} else {
		tg := time.Now()
		net, err := c.p.Network()
		rec.span("wsn.generate", tg)
		if err != nil {
			return cellRun{cell: c, err: err}
		}
		tp := time.Now()
		pr = experiment.PrepareNetInto(net, ws)
		rec.span("experiment.prepare", tp)
	}
	r := cellRun{cell: c, outs: make([]experiment.Outcome, len(c.algos))}
	for i, a := range c.algos {
		o, err := pr.Run(a, c.p)
		if err != nil {
			return cellRun{cell: c, err: fmt.Errorf("%s: %w", a, err)}
		}
		r.outs[i] = o
		bookOutcome(rec, c.fig, a, o)
	}
	r.dur = time.Since(t0)
	rec.addTop(r.dur)
	return r
}

// bookOutcome credits an outcome's self-measured phases: planning to
// the planner's layer, local search to tsp, and the rest of a simulated
// run to the clean simulator.
func bookOutcome(rec *recorder, fig, algo string, o experiment.Outcome) {
	if rec == nil {
		return
	}
	plan := time.Duration(o.PlanMillis * float64(time.Millisecond))
	switch algo {
	case experiment.AlgoMTD, experiment.AlgoMTDRefined, experiment.AlgoMTDVoronoi, experiment.AlgoMTDChristo:
		rec.addBusy("core.plan_fixed", plan, 1)
	case experiment.AlgoMTDVar:
		rec.addBusy("core.var", plan, 1)
		rec.add("core.var.replans", float64(o.Replans))
		rec.add("sim.run.self_s", (o.Millis-o.PlanMillis)/1e3)
	case experiment.AlgoGreedy:
		rec.addBusy("core.greedy", plan, 1)
		rec.add("sim.run.self_s", (o.Millis-o.PlanMillis)/1e3)
	}
	if fig == "ablation-tours" {
		rec.add("tsp.refine.busy_s", o.RefineMillis/1e3)
	}
}

// sameOutcomes compares every deterministic field of two cell runs.
func sameOutcomes(a, b []experiment.Outcome) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Cost != y.Cost || x.Deaths != y.Deaths || x.Dispatches != y.Dispatches || //lint:allow floateq determinism check
			x.Replans != y.Replans || x.LowerBound != y.LowerBound { //lint:allow floateq determinism check
			return false
		}
	}
	return true
}

// figsChecks checks the run's outputs outside the timed region:
//   - every MinTotalDistance schedule, and on pass 0 every schedule of
//     the MinTotalDistance family, planned again with core.PlanFixed,
//     passes sched.Schedule.Verify at the outcome's cost;
//   - every rerunEvery-th cell of pass 0, rerun on one goroutine with
//     one fresh arena, gives the same outcomes as the parallel pass.
//
// It returns the paper's headline ratio over pass 0 (passLen cells):
// the summed cost of the MinTotalDistance planners over that of Greedy
// on the same cells.
func figsChecks(c *checks, runs []cellRun, passLen int) float64 {
	var ws experiment.Scratch
	var mtd, greedy float64
	for i, r := range runs {
		cell, pass0 := r.cell, i < passLen
		if r.err != nil {
			continue
		}
		if pass0 && i%rerunEvery == 0 {
			rerun := runCell(cell, &ws, nil)
			c.expect(rerun.err == nil && sameOutcomes(r.outs, rerun.outs), "%s: one-worker rerun differs from the parallel pass", cell.label())
		}
		for ai, a := range cell.algos {
			if opt, ok := mtdOptions(a, cell.p); ok && (pass0 || a == experiment.AlgoMTD) {
				cost, err := verifyMTD(cell, opt)
				c.expect(err == nil && cost == r.outs[ai].Cost, "%s: re-planned %s: cost %v vs %v, %v", cell.label(), a, cost, r.outs[ai].Cost, err) //lint:allow floateq determinism check
			}
			switch {
			case !pass0:
			case a == experiment.AlgoMTD && cell.fig == "1a", a == experiment.AlgoMTDVar:
				mtd += r.outs[ai].Cost
			case a == experiment.AlgoGreedy:
				greedy += r.outs[ai].Cost
			}
		}
	}
	c.expect(greedy > 0, "no Greedy outcome in pass 0")
	if greedy == 0 {
		return 0
	}
	return mtd / greedy
}

// mtdOptions returns the core.PlanFixed options a MinTotalDistance
// family algorithm plans the cell with; ok is false for other
// algorithms.
func mtdOptions(algo string, p experiment.Params) (opt core.FixedOptions, ok bool) {
	opt = core.FixedOptions{Rooted: p.Rooted, Base: p.Base}
	switch algo {
	case experiment.AlgoMTD:
	case experiment.AlgoMTDRefined:
		opt.Rooted.Refine = true
	case experiment.AlgoMTDVoronoi:
		opt.Rooted.Method = rooted.MethodClusterFirst
	case experiment.AlgoMTDChristo:
		opt.Rooted.Method = rooted.MethodChristofides
	default:
		return opt, false
	}
	return opt, true
}

// verifyMTD plans the cell with core.PlanFixed directly and verifies the
// schedule against the sensors' cycles.
func verifyMTD(cell *figCell, opt core.FixedOptions) (float64, error) {
	net, err := cell.p.Network()
	if err != nil {
		return 0, err
	}
	plan, err := core.PlanFixed(net, cell.p.T, opt)
	if err != nil {
		return 0, err
	}
	if err := plan.Schedule.Verify(net.Cycles(), 1e-6); err != nil {
		return 0, err
	}
	return plan.Cost(), nil
}

// figsTraced runs one pass untraced and then traced, checks the two
// agree, and rebuilds every MinTotalDistance plan of the traced pass
// layer by layer, checking the rebuilt cost equals the outcome's.
func figsTraced(o options, sc figsScale) (*outcome, error) {
	arenas, err := figsSetup(o, sc)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	plain, wallPlain := figsLoop(o, sc, arenas, nil, 1)
	traced, wallTraced := figsLoop(o, sc, arenas, rec, 1)

	out := &outcome{}
	t0 := time.Now()
	var ws experiment.Scratch
	for i := range traced {
		cell := traced[i].cell
		out.attempted++
		if plain[i].err != nil || traced[i].err != nil {
			out.failed++
			out.checks.expect(false, "%s: %v / %v", cell.label(), plain[i].err, traced[i].err)
			continue
		}
		out.checks.expect(sameOutcomes(plain[i].outs, traced[i].outs), "%s: traced outcomes differ from untraced", cell.label())
		for ai, a := range cell.algos {
			if a != experiment.AlgoMTD {
				continue
			}
			td := time.Now()
			pr, err := experiment.PrepareInto(cell.p, &ws)
			if err != nil {
				return nil, err
			}
			cost, err := decompose(rec, pr.Net, pr.Space, cell.p.T, 0)
			rec.addTop(time.Since(td))
			out.checks.expect(err == nil && cost == traced[i].outs[ai].Cost, //lint:allow floateq the rebuild must reproduce PlanFixed exactly
				"%s: decomposed plan cost %v != PlanFixed's %v (%v)", cell.label(), cost, traced[i].outs[ai].Cost, err)
		}
	}
	rec.phase(time.Since(t0))
	rec.set("trace.overhead_ratio", wallTraced.Seconds()/wallPlain.Seconds())
	out.metrics = rec.layers()
	return out, nil
}
