package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/rooted"
	"repro/internal/serve"
	"repro/internal/tsp"
	"repro/internal/wsn"
)

// The serve-50k workload: tenant sessions, one after another, each on
// an in-process chargerd (serve.Server with its default config, reached
// through serve.NewHandler) fed by one closed-loop client as
// cmd/loadgen -churn drives it: 8-op delta batches (half joins, a
// quarter leaves, a quarter rate changes), with the session's
// background replans running beside them. The final topology is then
// planned cold through POST /plan on a server with nothing else
// running.
const (
	servePeriod = 100
	serveBatch  = 8
	// serveDeltaShare is the share of a tenant's time its delta loop
	// gets; at full scale its cold plans take about the rest.
	serveDeltaShare = 0.75
)

// serveScale sizes the workload: tenants sessions of n sensors each,
// one after another. A patch costs time in proportion to the tours it
// touches, and the planner's tour sizes are heavy-tailed (one
// topology's largest tour holds 5k sensors, another's 19k), so one
// topology would make the delta latency a draw of that one tail. The
// traced run repeats a fixed script of tracedBatches batches on the
// first tenant alone, then replays the first replayBatches of them
// against the delta layer directly.
type serveScale struct{ tenants, n, q, tracedBatches, replayBatches int }

var (
	serveFull = serveScale{tenants: 8, n: 50000, q: 20, tracedBatches: 96, replayBatches: 64}
	serveToy  = serveScale{tenants: 2, n: 300, q: 3, tracedBatches: 16, replayBatches: 16}
)

// slotRec mirrors one session slot on the client, so the client builds
// valid batches, rebuilds the live topology for cold plans and checks
// the fetched plan on its own.
type slotRec struct {
	x, y, capacity, cycle float64
	alive                 bool
}

// session is one tenant session on a live chargerd and the client's
// mirror of it.
type session struct {
	srv    *serve.Server
	h      http.Handler
	id     string
	base   *wsn.Network
	slots  []slotRec
	nAlive int
	ops    *rng.Source
	// fresh and lastNet are the cost and topology of the tenant's last
	// cold plan; final is the session plan fetched after the script.
	fresh   float64
	lastNet *wsn.Network
	final   *serve.SessionPlanJSON
}

// serveStats is what one closed-loop script produced.
type serveStats struct {
	attempted, failed int64
	deltaMs, planMs   []float64
	batches           [][]serve.DeltaOpJSON // accepted batches, in order
	versions          []int64
	planSums          [][32]byte
	wall              time.Duration
	errs              []string
}

// serveNet generates tenant's topology.
func serveNet(seed uint64, sc serveScale, tenant int, rec *recorder) (*wsn.Network, error) {
	t0 := rec.start()
	net, err := wsn.Generate(rng.New(seed).Split(1, uint64(tenant)), wsn.GenConfig{
		N: sc.n, Q: sc.q, Dist: wsn.LinearDist{TauMin: 2, TauMax: 40, Sigma: 2},
	})
	rec.span("wsn.generate", t0)
	return net, err
}

// newMirror is the client's view of tenant's freshly created session
// on net, with the tenant's batch stream.
func newMirror(net *wsn.Network, seed uint64, tenant int) *session {
	s := &session{base: net, nAlive: net.N(), ops: rng.New(seed).Split(2, uint64(tenant))}
	s.slots = make([]slotRec, 0, 2*net.N())
	for _, x := range net.Sensors {
		s.slots = append(s.slots, slotRec{x: x.Pos.X, y: x.Pos.Y, capacity: x.Capacity, cycle: x.Cycle, alive: true})
	}
	return s
}

// openSession starts a server and registers net as tenant's session.
func openSession(net *wsn.Network, seed uint64, tenant int) (*session, error) {
	body, err := json.Marshal(serve.NewRequest(net, experiment.AlgoMTD, servePeriod))
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{})
	h := serve.NewHandler(srv)
	rr := call(h, http.MethodPost, "/session", body)
	if rr.Code != http.StatusCreated {
		srv.Close()
		return nil, fmt.Errorf("create session: status %d: %.200s", rr.Code, rr.Body.Bytes())
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
		srv.Close()
		return nil, fmt.Errorf("create session: %w", err)
	}
	s := newMirror(net, seed, tenant)
	s.srv, s.h, s.id = srv, h, info.ID
	return s, nil
}

// call sends one request to the handler in process.
func call(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rr
}

func runServe(o options) (*outcome, error) {
	sc := serveFull
	if o.toy {
		sc = serveToy
	}
	if o.trace {
		return serveTraced(o, sc)
	}
	// Each tenant runs alone on a server of its own for an equal share of
	// o.seconds, so no tenant's background replans overlap another's
	// work; the measurements pool. A tenant's set-up generates its
	// topology, starts its server and creates its session (the initial
	// plan); setup_s is the median over tenants.
	heap := startHeapPeak()
	st := &serveStats{}
	setups := make([]float64, sc.tenants)
	var patched, fresh float64
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		net, err := serveNet(o.seed, sc, i, nil)
		var s *session
		if err == nil {
			s, err = openSession(net, o.seed, i)
		}
		if err != nil {
			heap.finish()
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
		s.script(st, serveDeltaShare*o.seconds/float64(sc.tenants), -1, nil)
		s.srv.Close()
		s.coldPlan(st, nil)
		if s.final != nil {
			patched += s.final.Cost
			fresh += s.fresh
		}
	}
	peak := heap.finish()

	out := &outcome{attempted: st.attempted, failed: st.failed}
	for _, e := range st.errs {
		out.checks.expect(false, "%s", e)
	}
	ratio := 0.0
	if fresh > 0 {
		ratio = patched / fresh
	}
	out.metrics = e2e(map[string]float64{
		"setup_s":      percentile(setups, 0.5),
		"peak_heap_mb": peak,
		"units_per_s":  float64(len(st.deltaMs)) / st.wall.Seconds(),
		"plan_p50_ms":  percentile(st.planMs, 0.5),
		"op_p50_ms":    percentile(st.deltaMs, 0.5),
		"op_p99_ms":    percentile(st.deltaMs, 0.99),
		"cost_ratio":   ratio,
	})
	return out, nil
}

// script drives the session in a closed loop, for seconds when limit
// < 0, else for exactly limit accepted batches, and adds what it
// measures to st. Then, outside the measured window, it fetches the
// session plan and checks it against the mirror.
func (s *session) script(st *serveStats, seconds float64, limit int, rec *recorder) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	accepted := 0
	for limit < 0 && time.Now().Before(deadline) || limit >= 0 && accepted < limit {
		ok, err := s.delta(st, rec)
		if err != nil {
			st.errs = append(st.errs, err.Error())
			break
		}
		accepted += ok
	}
	st.wall += time.Since(start)
	s.fetchFinal(st)
}

// delta sends the tenant's next batch and returns 1 if the server
// accepted it, 0 if it shed or failed it.
func (s *session) delta(st *serveStats, rec *recorder) (int, error) {
	ops, apply := churnBatch(s.ops, s.slots, s.nAlive, serveBatch)
	body, err := json.Marshal(serve.DeltaRequest{Ops: ops})
	if err != nil {
		return 0, err
	}
	st.attempted++
	t0 := time.Now()
	rr := call(s.h, http.MethodPost, "/session/"+s.id+"/delta", body)
	d := time.Since(t0)
	if rec != nil {
		rec.addBusy("serve.session_delta", d, 1)
		rec.addTop(d)
	}
	switch rr.Code {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		return 0, nil
	default:
		st.failed++
		st.errs = append(st.errs, fmt.Sprintf("delta: status %d: %.200s", rr.Code, rr.Body.Bytes()))
		return 0, nil
	}
	st.deltaMs = append(st.deltaMs, ms(d))
	var res serve.DeltaResult
	if err := json.Unmarshal(rr.Body.Bytes(), &res); err != nil {
		st.failed++
		st.errs = append(st.errs, fmt.Sprintf("delta: %v", err))
		return 0, nil
	}
	s.slots, s.nAlive = apply(s.slots, s.nAlive)
	st.batches = append(st.batches, ops)
	st.versions = append(st.versions, res.Version)
	return 1, nil
}

// fetchFinal fetches the session plan into s.final and checks it is
// gap-feasible for the mirrored topology.
func (s *session) fetchFinal(st *serveStats) {
	rr := call(s.h, http.MethodGet, "/session/"+s.id+"/plan", nil)
	if rr.Code != http.StatusOK {
		st.errs = append(st.errs, fmt.Sprintf("session plan: status %d", rr.Code))
		return
	}
	view := &serve.SessionPlanJSON{}
	if err := json.Unmarshal(rr.Body.Bytes(), view); err != nil {
		st.errs = append(st.errs, fmt.Sprintf("session plan: %v", err))
		return
	}
	s.final = view
	if view.N != s.nAlive || !gapsFeasible(view, s.slots) {
		st.errs = append(st.errs, "the session plan is not gap-feasible for the mirrored topology")
	}
}

// coldPlan plans the session's final topology from scratch through
// POST /plan on a fresh server with nothing else running, and keeps
// the topology in s.lastNet and the plan's cost in s.fresh. Traced, the
// request is parsed, submitted and its response encoded as three timed
// calls, and it returns the server's /metrics text.
func (s *session) coldPlan(st *serveStats, rec *recorder) string {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	h := serve.NewHandler(srv)
	s.lastNet = s.liveNet()
	body, err := json.Marshal(serve.NewRequest(s.lastNet, experiment.AlgoMTD, servePeriod))
	if err != nil {
		st.errs = append(st.errs, err.Error())
		return ""
	}
	st.attempted++
	t0 := time.Now()
	var raw []byte
	if rec == nil {
		rr := call(h, http.MethodPost, "/plan", body)
		if rr.Code != http.StatusOK {
			st.failed++
			st.errs = append(st.errs, fmt.Sprintf("plan: status %d: %.200s", rr.Code, rr.Body.Bytes()))
			return ""
		}
		raw = rr.Body.Bytes()
	} else {
		tp := time.Now()
		req, err := serve.ParseRequest(body)
		rec.span("serve.parse", tp)
		if err == nil {
			ts := time.Now()
			var res serve.Result
			res, err = srv.Submit(context.Background(), req)
			rec.span("serve.submit", ts)
			raw = res.Body
		}
		if err != nil {
			st.failed++
			st.errs = append(st.errs, fmt.Sprintf("plan: %v", err))
			return ""
		}
	}
	d := time.Since(t0)
	var resp serve.PlanResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		st.failed++
		st.errs = append(st.errs, fmt.Sprintf("plan: %v", err))
		return ""
	}
	if rec != nil {
		te := time.Now()
		again, err := resp.Encode()
		rec.span("serve.encode", te)
		rec.addTop(time.Since(t0))
		if err != nil || !bytes.Equal(again, raw) {
			st.errs = append(st.errs, "re-encoding a plan response did not reproduce its bytes")
		}
	}
	st.planMs = append(st.planMs, ms(d))
	st.planSums = append(st.planSums, sha256.Sum256(raw))
	s.fresh = resp.Cost
	if rec == nil {
		return ""
	}
	return call(h, http.MethodGet, "/metrics", nil).Body.String()
}

// liveNet rebuilds the live topology from the mirror: slot order kept,
// ids packed to 0..n-1.
func (s *session) liveNet() *wsn.Network {
	live := &wsn.Network{Field: s.base.Field, Base: s.base.Base, Depots: s.base.Depots}
	for _, x := range s.slots {
		if x.alive {
			live.Sensors = append(live.Sensors, wsn.Sensor{
				ID: len(live.Sensors), Pos: geom.Point{X: x.x, Y: x.y}, Capacity: x.capacity, Cycle: x.cycle,
			})
		}
	}
	return live
}

// churnBatch builds one batch against the mirror, as cmd/loadgen -churn
// does: about half joins, a quarter leaves, a quarter rate changes, with
// new cycles at or above the live minimum so no batch is structural.
// apply commits the batch to the mirror once the server accepted it.
func churnBatch(r *rng.Source, slots []slotRec, nAlive, size int) ([]serve.DeltaOpJSON, func([]slotRec, int) ([]slotRec, int)) {
	minCycle := math.Inf(1)
	for _, s := range slots {
		if s.alive && s.cycle < minCycle {
			minCycle = s.cycle
		}
	}
	pickLive := func() int {
		for {
			id := min(int(r.Uniform(0, float64(len(slots)))), len(slots)-1)
			if slots[id].alive {
				return id
			}
		}
	}
	type commit struct {
		kind  string
		id    int
		rec   slotRec
		cycle float64
	}
	var ops []serve.DeltaOpJSON
	var commits []commit
	joined := 0
	for i := 0; i < size; i++ {
		roll := r.Uniform(0, 1)
		switch {
		case roll < 0.5 || nAlive+joined-len(commits) < 8:
			rec := slotRec{x: r.Uniform(0, 1000), y: r.Uniform(0, 1000), cycle: minCycle * r.Uniform(1, 16), alive: true, capacity: 1}
			ops = append(ops, serve.DeltaOpJSON{Op: "join", X: rec.x, Y: rec.y, Cycle: rec.cycle})
			commits = append(commits, commit{kind: "join", rec: rec})
			joined++
		case roll < 0.75:
			id := pickLive()
			ops = append(ops, serve.DeltaOpJSON{Op: "leave", ID: &id})
			commits = append(commits, commit{kind: "leave", id: id})
			slots[id].alive = false // tentatively, so the batch stays self-consistent
		default:
			id := pickLive()
			cycle := minCycle * r.Uniform(1, 16)
			ops = append(ops, serve.DeltaOpJSON{Op: "rate", ID: &id, Cycle: cycle})
			commits = append(commits, commit{kind: "rate", id: id, cycle: cycle})
		}
	}
	for _, c := range commits {
		if c.kind == "leave" {
			slots[c.id].alive = true
		}
	}
	apply := func(slots []slotRec, nAlive int) ([]slotRec, int) {
		for _, c := range commits {
			switch c.kind {
			case "join":
				slots = append(slots, c.rec)
				nAlive++
			case "leave":
				slots[c.id].alive = false
				nAlive--
			case "rate":
				slots[c.id].cycle = c.cycle
			}
		}
		return slots, nAlive
	}
	return ops, apply
}

// gapsFeasible checks the fetched session plan against the mirror on
// the client: every live slot sits in a consistent prefix D_c..D_K, its
// charging period 2^c·τ₁ and its terminal gap fit its cycle, and no
// dead slot appears anywhere.
func gapsFeasible(view *serve.SessionPlanJSON, slots []slotRec) bool {
	const eps = 1e-9
	if view.Slots != len(slots) {
		return false
	}
	member := make([][]bool, view.K+1)
	for _, sol := range view.Solutions {
		if sol.K < 0 || sol.K > view.K {
			return false
		}
		m := make([]bool, view.Slots)
		for _, t := range sol.Tours {
			for _, s := range t.Stops {
				if s < 0 || s >= view.Slots {
					return false
				}
				m[s] = true
			}
		}
		member[sol.K] = m
	}
	for k := range member {
		if member[k] == nil {
			return false
		}
	}
	for s := range slots {
		c := -1
		for k := 0; k <= view.K; k++ {
			if member[k][s] {
				if c < 0 {
					c = k
				}
			} else if c >= 0 {
				return false
			}
		}
		if !slots[s].alive {
			if c >= 0 {
				return false
			}
			continue
		}
		if c < 0 {
			return false
		}
		p := math.Pow(2, float64(c)) * view.Tau1
		last := math.Floor((view.T-eps)/p) * p
		if p > slots[s].cycle*(1+eps) || view.T-last > slots[s].cycle*(1+eps) {
			return false
		}
	}
	return true
}

// serveTraced runs the same fixed script on the first tenant alone,
// untraced and then traced, each time on fresh servers, and checks the
// two agree: every cold plan's bytes, every batch's version, and the
// final session's version and topology. It then rebuilds the final
// plan layer by layer and replays the accepted batches against the
// delta layer directly.
func serveTraced(o options, sc serveScale) (*outcome, error) {
	rec := newRecorder()
	net, err := serveNet(o.seed, sc, 0, rec)
	if err != nil {
		return nil, err
	}
	var runs [2]*serveStats
	var sessions [2]*session
	var walls [2]time.Duration
	var scrape string
	for i, r := range []*recorder{nil, rec} {
		s, err := openSession(net, o.seed, 0)
		if err != nil {
			return nil, err
		}
		// The phase leaves out Close, which waits for the last
		// background replan: the client has no span around it.
		t0 := time.Now()
		runs[i] = &serveStats{}
		s.script(runs[i], o.seconds, sc.tracedBatches, r)
		walls[i] = time.Since(t0)
		if r != nil {
			scrape = call(s.h, http.MethodGet, "/metrics", nil).Body.String()
		}
		s.srv.Close()
		t0 = time.Now()
		scrape += s.coldPlan(runs[i], r)
		walls[i] += time.Since(t0)
		sessions[i] = s
	}
	plain, traced := runs[0], runs[1]
	plainView, tracedView := sessions[0].final, sessions[1].final
	rec.phase(walls[1])
	rec.set("trace.overhead_ratio", walls[1].Seconds()/walls[0].Seconds())

	out := &outcome{attempted: traced.attempted, failed: traced.failed}
	for _, e := range append(plain.errs, traced.errs...) {
		out.checks.expect(false, "%s", e)
	}
	out.checks.expect(fmt.Sprint(plain.versions) == fmt.Sprint(traced.versions), "traced batch versions differ from untraced")
	out.checks.expect(fmt.Sprint(plain.planSums) == fmt.Sprint(traced.planSums), "traced cold plans differ from untraced")
	// The final session cost is not compared: it depends on which batch
	// each background replan's snapshot and install land on.
	if plainView != nil && tracedView != nil {
		out.checks.expect(plainView.Version == tracedView.Version && plainView.Fingerprint == tracedView.Fingerprint,
			"final session differs: version %d topology %s untraced, version %d topology %s traced",
			plainView.Version, plainView.Fingerprint, tracedView.Version, tracedView.Fingerprint)
	}
	scrapeMetrics(rec, scrape)

	// Rebuild the final cold plan: grid index, PlanFixed as the server
	// runs it, and the layer-by-layer decomposition, all at one cost.
	if last := sessions[1].lastNet; last != nil {
		t0 := time.Now()
		workers := runtime.GOMAXPROCS(0)
		tg := time.Now()
		grid := metric.NewGrid(last.Points())
		rec.span("metric.grid", tg)
		tp := time.Now()
		plan, err := coreplan(last, grid, workers)
		rec.span("core.plan_fixed", tp)
		cost, derr := decompose(rec, last, grid, servePeriod, workers)
		rec.addTop(time.Since(t0))
		rec.phase(time.Since(t0))
		fresh := sessions[1].fresh
		out.checks.expect(err == nil && derr == nil && plan == fresh && cost == plan, //lint:allow floateq the rebuild must reproduce PlanFixed exactly
			"final plan: /plan cost %v, PlanFixed %v (%v), decomposed %v (%v)", fresh, plan, err, cost, derr)
	}

	// Replay the first accepted batches against delta.State directly,
	// with reconciling replans inline, timing each Apply and Replan.
	t0 := time.Now()
	st, err := delta.New(net, delta.Config{T: servePeriod, Workers: runtime.GOMAXPROCS(0), MaxRounds: serve.MaxRounds}, tsp.NewScratch())
	if err != nil {
		return nil, err
	}
	for i, b := range traced.batches[:min(len(traced.batches), sc.replayBatches)] {
		ta := time.Now()
		res, err := st.Apply(deltaOps(b))
		rec.span("delta.apply", ta)
		if err != nil {
			out.checks.expect(false, "delta replay batch %d: %v", i, err)
			break
		}
		if res.NeedReplan {
			tr := time.Now()
			err := st.Replan()
			rec.span("delta.replan", tr)
			out.checks.expect(err == nil, "delta replay replan: %v", err)
		}
	}
	rec.addTop(time.Since(t0))
	rec.phase(time.Since(t0))
	// The patched ratio compares against a fresh plan of the replayed
	// topology, made after the timed replay.
	patched := st.Cost()
	if err := st.Replan(); err != nil {
		return nil, err
	}
	rec.set("delta.patched_ratio", patched/st.Cost())
	out.metrics = rec.layers()
	return out, nil
}

// deltaOps converts a batch to patcher ops exactly as the server's
// request parser does.
func deltaOps(b []serve.DeltaOpJSON) []delta.Op {
	ops := make([]delta.Op, len(b))
	for i, o := range b {
		switch o.Op {
		case "join":
			ops[i] = delta.Op{Kind: delta.OpJoin, X: o.X, Y: o.Y, Capacity: o.Capacity, Cycle: o.Cycle}
		case "leave":
			ops[i] = delta.Op{Kind: delta.OpLeave, ID: *o.ID}
		case "rate":
			ops[i] = delta.Op{Kind: delta.OpRate, ID: *o.ID, Cycle: o.Cycle}
		}
	}
	return ops
}

// scrapeMetrics reads the serving counters chargerd exports on /metrics.
func scrapeMetrics(rec *recorder, text string) {
	sum := func(name string, match func(labels string) bool) float64 {
		var total float64
		for _, line := range strings.Split(text, "\n") {
			rest, ok := strings.CutPrefix(line, name)
			if !ok {
				continue
			}
			labels := ""
			if strings.HasPrefix(rest, "{") {
				end := strings.Index(rest, "}")
				if end < 0 {
					continue
				}
				labels, rest = rest[1:end], rest[end+1:]
			}
			if !strings.HasPrefix(rest, " ") || !match(labels) {
				continue
			}
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				total += v
			}
		}
		return total
	}
	all := func(string) bool { return true }
	shed := func(l string) bool { return l == `outcome="shed"` }
	rec.set("serve.plan_span_s", sum("chargerd_plan_seconds_sum", all))
	rec.set("serve.session_replans", sum("chargerd_session_replans_total", all))
	rec.set("serve.shed", sum("chargerd_requests_total", shed)+sum("chargerd_deltas_total", shed))
	if hits, misses := sum("chargerd_cache_hits_total", all), sum("chargerd_cache_misses_total", all); hits+misses > 0 {
		rec.set("serve.cache.hit_ratio", hits/(hits+misses))
	}
}

// coreplan runs core.PlanFixed on space as chargerd's /plan does above
// metric.DenseLimit (q tours built on workers goroutines) and returns
// the schedule's cost.
func coreplan(net *wsn.Network, space metric.Space, workers int) (float64, error) {
	plan, err := core.PlanFixed(net, servePeriod, core.FixedOptions{Space: space, Rooted: rooted.Options{Workers: workers}})
	if err != nil {
		return math.NaN(), err
	}
	return plan.Cost(), nil
}
