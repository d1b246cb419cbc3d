package serve

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"repro/internal/delta"
	"repro/internal/experiment"
	"repro/internal/rooted"
	"repro/internal/tsp"
)

// ErrSessionNotFound is returned for an unknown, deleted or evicted
// session id; the HTTP layer maps it to 404.
var ErrSessionNotFound = errors.New("serve: session not found")

// SessionConfig sizes the stateful session layer.
type SessionConfig struct {
	// Shards is the number of session shards, each a serial goroutine
	// owning its sessions, scratch arena and LRU; 0 means the server's
	// worker count. Concurrent deltas to one session serialize through
	// its shard — that is the determinism mechanism.
	Shards int
	// PerShard caps live sessions per shard; the least recently used is
	// evicted when a create would exceed it. 0 means 64.
	PerShard int
	// Queue bounds each shard's pending-operation queue; a full queue
	// sheds with ErrOverloaded. 0 means 64.
	Queue int
	// Ring is the per-session delta log capacity (batches) buffered
	// while a background reconciling replan runs; an overflow discards
	// the replan and retriggers from a fresh snapshot. 0 means 256.
	Ring int
	// MaxDrift is the cost-drift ratio that triggers reconciliation;
	// 0 means the delta default (0.02).
	MaxDrift float64
	// SyncReplan runs reconciling replans inline on the shard instead
	// of in the background — deterministic session evolution for tests
	// and reproduction runs, at the price of delta tail latency.
	SyncReplan bool
}

func (c SessionConfig) withDefaults(workers int) SessionConfig {
	if c.Shards <= 0 {
		c.Shards = workers
	}
	if c.PerShard <= 0 {
		c.PerShard = 64
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Ring <= 0 {
		c.Ring = 256
	}
	return c
}

// SessionInfo is the metadata payload of POST /session and
// GET /session/{id}.
type SessionInfo struct {
	ID          string  `json:"session"`
	Algorithm   string  `json:"algorithm"`
	N           int     `json:"n"`
	Q           int     `json:"q"`
	K           int     `json:"k"`
	Tau1        float64 `json:"tau1"`
	T           float64 `json:"t"`
	Cost        float64 `json:"cost"`
	Drift       float64 `json:"drift"`
	Version     int64   `json:"version"`
	Replans     int     `json:"replans"`
	PatchedOps  int64   `json:"patched_ops"`
	Fingerprint string  `json:"fingerprint"`
}

// DeltaResult is the outcome of one applied delta batch.
type DeltaResult struct {
	Version    int64   `json:"version"`
	Cost       float64 `json:"cost"`
	Drift      float64 `json:"drift"`
	Joined     []int   `json:"joined,omitempty"`
	Replanned  bool    `json:"replanned"`
	NeedReplan bool    `json:"need_replan"`
}

// session is one tenant's held state, owned by exactly one shard.
type session struct {
	id         string
	algo       string
	st         *delta.State
	ring       *delta.OpRing
	elem       *list.Element
	replanning bool
}

// sessionShard owns a disjoint subset of sessions. All access runs on
// the shard's single goroutine (run), so session state needs no locks;
// the jobs channel is the serialization point and the backpressure
// boundary.
type sessionShard struct {
	idx  int
	ss   *Sessions
	jobs chan func()
	sc   *tsp.Scratch

	// Owned by run():
	sessions map[string]*session
	lru      *list.List // front = most recently used; values are *session
	seq      uint64
}

// Sessions is the stateful tenant layer: sessions sharded by topology
// fingerprint, each shard a serial event loop. Created by New alongside
// the stateless pool; closed by Server.Close.
type Sessions struct {
	cfg     SessionConfig
	met     *Metrics
	workers int
	shards  []*sessionShard
	quit    chan struct{}
	wg      sync.WaitGroup

	closeOnce sync.Once
}

func newSessions(cfg SessionConfig, met *Metrics, workers int) *Sessions {
	cfg = cfg.withDefaults(workers)
	ss := &Sessions{cfg: cfg, met: met, workers: workers, quit: make(chan struct{})}
	ss.shards = make([]*sessionShard, cfg.Shards)
	for i := range ss.shards {
		sh := &sessionShard{
			idx:      i,
			ss:       ss,
			jobs:     make(chan func(), cfg.Queue),
			sc:       tsp.NewScratch(),
			sessions: map[string]*session{},
			lru:      list.New(),
		}
		ss.shards[i] = sh
		ss.wg.Add(1)
		go sh.run()
	}
	return ss
}

// Close stops every shard. Pending jobs are abandoned; blocked callers
// unblock with ErrClosed.
func (ss *Sessions) Close() {
	ss.closeOnce.Do(func() { close(ss.quit) })
	ss.wg.Wait()
}

func (sh *sessionShard) run() {
	defer sh.ss.wg.Done()
	for {
		select {
		case job := <-sh.jobs:
			job()
		case <-sh.ss.quit:
			return
		}
	}
}

// do runs fn on the shard's goroutine and waits for it, shedding when
// the shard queue is full.
func (sh *sessionShard) do(fn func()) error {
	done := make(chan struct{})
	job := func() {
		fn()
		close(done)
	}
	select {
	case sh.jobs <- job:
	case <-sh.ss.quit:
		return ErrClosed
	default:
		return ErrOverloaded
	}
	select {
	case <-done:
		return nil
	case <-sh.ss.quit:
		return ErrClosed
	}
}

// shardFor routes a fingerprint to its home shard.
func (ss *Sessions) shardFor(fp uint64) *sessionShard {
	return ss.shards[int(fp%uint64(len(ss.shards)))]
}

// shardOf parses the shard index a session id encodes; the id format is
// "<shard hex2>-<fingerprint hex16>-<sequence hex8>".
func (ss *Sessions) shardOf(id string) (*sessionShard, error) {
	var shard int
	var fp uint64
	var seq uint32
	if _, err := fmt.Sscanf(id, "%02x-%016x-%08x", &shard, &fp, &seq); err != nil || shard < 0 || shard >= len(ss.shards) {
		return nil, ErrSessionNotFound
	}
	return ss.shards[shard], nil
}

// sessionDeltaConfig maps a parsed create request onto the patcher's
// planning parameters.
func sessionDeltaConfig(req *PlanRequest, maxDrift float64, workers int) (delta.Config, error) {
	spec, ok := algoSpecs[req.Algorithm]
	if !ok || !spec.schedule {
		return delta.Config{}, badRequest("algorithm %q does not support sessions (need a schedule algorithm: %s, %s, %s or %s)",
			req.Algorithm, experiment.AlgoMTD, experiment.AlgoMTDRefined, experiment.AlgoMTDVoronoi, experiment.AlgoMTDChristo)
	}
	cfg := delta.Config{
		Base:      req.Base,
		T:         req.T,
		Workers:   workers,
		MaxDrift:  maxDrift,
		MaxRounds: MaxRounds,
	}
	switch req.Algorithm {
	case experiment.AlgoMTDRefined:
		cfg.Refine = true
	case experiment.AlgoMTDVoronoi:
		cfg.Method = rooted.MethodClusterFirst
	case experiment.AlgoMTDChristo:
		cfg.Method = rooted.MethodChristofides
	}
	return cfg, nil
}

// Create registers a tenant's network as a new session: the initial
// full plan runs on the session's home shard and the returned id routes
// every later call to that shard.
func (ss *Sessions) Create(req *PlanRequest) (*SessionInfo, error) {
	cfg, err := sessionDeltaConfig(req, ss.cfg.MaxDrift, ss.workers)
	if err != nil {
		return nil, err
	}
	sh := ss.shardFor(req.Fingerprint())
	var info *SessionInfo
	var cerr error
	derr := sh.do(func() {
		st, err := delta.New(req.Network(), cfg, sh.sc)
		if err != nil {
			cerr = badRequest("%v", err)
			return
		}
		sh.seq++
		sess := &session{
			id:   fmt.Sprintf("%02x-%016x-%08x", sh.idx, req.Fingerprint(), uint32(sh.seq)),
			algo: req.Algorithm,
			st:   st,
			ring: delta.NewOpRing(ss.cfg.Ring),
		}
		sess.elem = sh.lru.PushFront(sess)
		sh.sessions[sess.id] = sess
		ss.met.SessionsActive.Add(1)
		for sh.lru.Len() > ss.cfg.PerShard {
			sh.evict(sh.lru.Back().Value.(*session))
		}
		info = sess.info()
	})
	if derr != nil {
		return nil, derr
	}
	return info, cerr
}

// evict drops a session (LRU overflow or delete). Runs on the shard
// goroutine.
func (sh *sessionShard) evict(sess *session) {
	delete(sh.sessions, sess.id)
	sh.lru.Remove(sess.elem)
	sh.ss.met.SessionsActive.Add(-1)
	sh.ss.met.SessionsEvicted.Inc()
}

func (s *session) info() *SessionInfo {
	return &SessionInfo{
		ID:          s.id,
		Algorithm:   s.algo,
		N:           s.st.N(),
		Q:           s.st.Q(),
		K:           s.st.K(),
		Tau1:        s.st.Tau1(),
		T:           s.st.Cfg().T,
		Cost:        s.st.Cost(),
		Drift:       s.st.Drift(),
		Version:     s.st.Version(),
		Replans:     s.st.Replans(),
		PatchedOps:  s.st.PatchedOps(),
		Fingerprint: fmt.Sprintf("%016x", s.st.Fingerprint()),
	}
}

// lookup finds a live session and marks it recently used. Runs on the
// shard goroutine. An id that routed here but was evicted (or never
// existed) is reported exactly like a deleted one — the lookup happens
// at execution time, so a delta racing an eviction gets a clean 404,
// never a dangling state.
func (sh *sessionShard) lookup(id string) (*session, error) {
	sess, ok := sh.sessions[id]
	if !ok {
		return nil, ErrSessionNotFound
	}
	sh.lru.MoveToFront(sess.elem)
	return sess, nil
}

// Get returns a session's current metadata.
func (ss *Sessions) Get(id string) (*SessionInfo, error) {
	sh, err := ss.shardOf(id)
	if err != nil {
		return nil, err
	}
	var info *SessionInfo
	var gerr error
	if derr := sh.do(func() {
		sess, err := sh.lookup(id)
		if err != nil {
			gerr = err
			return
		}
		info = sess.info()
	}); derr != nil {
		return nil, derr
	}
	return info, gerr
}

// Plan returns a session's current patched plan.
func (ss *Sessions) Plan(id string) (*delta.PlanView, error) {
	sh, err := ss.shardOf(id)
	if err != nil {
		return nil, err
	}
	var view *delta.PlanView
	var gerr error
	if derr := sh.do(func() {
		sess, err := sh.lookup(id)
		if err != nil {
			gerr = err
			return
		}
		view = sess.st.View()
	}); derr != nil {
		return nil, derr
	}
	return view, gerr
}

// Delete removes a session.
func (ss *Sessions) Delete(id string) error {
	sh, err := ss.shardOf(id)
	if err != nil {
		return err
	}
	var gerr error
	if derr := sh.do(func() {
		sess, err := sh.lookup(id)
		if err != nil {
			gerr = err
			return
		}
		sh.evict(sess)
	}); derr != nil {
		return derr
	}
	return gerr
}

// Delta applies one batch of ops to a session. Batches from concurrent
// callers serialize through the shard in arrival order; each lands
// atomically (see delta.State.Apply) and bumps the version by one.
func (ss *Sessions) Delta(id string, ops []delta.Op) (*DeltaResult, error) {
	sh, err := ss.shardOf(id)
	if err != nil {
		return nil, err
	}
	var out *DeltaResult
	var gerr error
	if derr := sh.do(func() { out, gerr = sh.applyDelta(id, ops) }); derr != nil {
		return nil, derr
	}
	return out, gerr
}

// applyDelta is Delta's body. Runs on the shard goroutine.
func (sh *sessionShard) applyDelta(id string, ops []delta.Op) (*DeltaResult, error) {
	sess, err := sh.lookup(id)
	if err != nil {
		return nil, err
	}
	res, err := sess.st.Apply(ops)
	if err != nil {
		var be *delta.BatchError
		if errors.As(err, &be) {
			// Rejected before any mutation; session stays usable.
			return nil, badRequest("%v", err)
		}
		// The state may be inconsistent: kill the session.
		sh.evict(sess)
		sh.ss.met.SessionReplans.With(ReplanError).Inc()
		return nil, fmt.Errorf("serve: session %s failed and was discarded: %w", id, err)
	}
	sh.ss.met.DeltaOps.Add(int64(len(ops)))
	if sess.replanning {
		sess.ring.Append(ops)
	}
	if res.Replanned {
		sh.ss.met.SessionReplans.With(ReplanStructural).Inc()
	}
	if res.NeedReplan && !sess.replanning {
		sh.startReconcile(sess)
	}
	return &DeltaResult{
		Version:    sess.st.Version(),
		Cost:       res.Cost,
		Drift:      res.Drift,
		Joined:     res.Joined,
		Replanned:  res.Replanned,
		NeedReplan: res.NeedReplan,
	}, nil
}

// catchUpPasses bounds how often a background reconcile drains the
// session's ring and replays it off the shard before installing, and
// catchUpTail is the drained length at which it stops early: the
// install job on the shard then replays only the batches that landed
// during the last pass.
const (
	catchUpPasses = 4
	catchUpTail   = 2
)

// startReconcile launches the cost-drift reconciliation for sess: a
// full replan of a deep snapshot off the shard, with the batches that
// land meanwhile logged in the session's ring for replay. The replan's
// goroutine also does the replay: it drains the ring through a shard
// job and applies the drained batches to the fresh state, pass after
// pass while the tail stays long, so the install job (finishReconcile)
// replays only a short tail on the shard. Runs on the shard goroutine.
// Under SyncReplan the replan happens inline instead — same end state,
// deterministic timing.
func (sh *sessionShard) startReconcile(sess *session) {
	if sh.ss.cfg.SyncReplan {
		if err := sess.st.Replan(); err != nil {
			sh.evict(sess)
			sh.ss.met.SessionReplans.With(ReplanError).Inc()
			return
		}
		sh.ss.met.SessionReplans.With(ReplanDrift).Inc()
		return
	}
	sess.replanning = true
	snap := sess.st.Snapshot()
	id := sess.id
	// Registering with ss.wg is safe against a concurrent Close: this
	// runs on the shard goroutine, which holds its own wg count until it
	// exits, so the counter cannot have reached zero yet.
	sh.ss.wg.Add(1)
	go func() {
		defer sh.ss.wg.Done()
		st, err := delta.PlanSnapshot(snap, nil)
		for pass := 0; err == nil && pass < catchUpPasses; pass++ {
			batches, ok := sh.drainLog(id)
			if !ok {
				break
			}
			err = replay(st, batches)
			if len(batches) <= catchUpTail {
				break
			}
		}
		job := func() { sh.finishReconcile(id, st, err) }
		select {
		case sh.jobs <- job:
		case <-sh.ss.quit:
		}
	}()
}

// drainLog takes the batches logged so far for a replanning session,
// through a shard job. It reports false, leaving the log to
// finishReconcile, when the session is gone, its log overflowed, or the
// shard is closing or full.
func (sh *sessionShard) drainLog(id string) ([][]delta.Op, bool) {
	var batches [][]delta.Op
	ok := false
	if err := sh.do(func() {
		if sess, found := sh.sessions[id]; found && !sess.ring.Overflowed() {
			batches, ok = sess.ring.Drain(), true
		}
	}); err != nil {
		// The job may still be running if the shard is closing: leave
		// what it writes unread.
		return nil, false
	}
	return batches, ok
}

// replay applies logged batches to a reconciled state in order. The
// batches applied to the live state, so they must replay cleanly; a
// failure means the snapshot diverged.
func replay(st *delta.State, batches [][]delta.Op) error {
	for _, batch := range batches {
		if _, err := st.Apply(batch); err != nil {
			return fmt.Errorf("serve: replaying a logged batch: %w", err)
		}
	}
	return nil
}

// finishReconcile installs a background replan's result: replay the
// batches logged since the last catch-up pass, then swap the fresh
// state in atomically (between two deltas, since the shard is serial).
// Runs on the shard goroutine.
func (sh *sessionShard) finishReconcile(id string, st *delta.State, err error) {
	sess, ok := sh.sessions[id]
	if !ok {
		return // evicted or deleted while replanning; drop the result
	}
	sess.replanning = false
	if err != nil {
		// Keep serving the patched plan (a failed replay leaves the live
		// state consistent too); the drift signal stays high, so the
		// next delta retriggers reconciliation.
		sess.ring.Drain()
		sh.ss.met.SessionReplans.With(ReplanError).Inc()
		return
	}
	if sess.ring.Overflowed() {
		// The log is incomplete: this replan cannot catch up. Discard it
		// and restart from a fresh snapshot.
		sess.ring.Drain()
		sh.ss.met.SessionReplans.With(ReplanOverflow).Inc()
		sh.startReconcile(sess)
		return
	}
	if err := replay(st, sess.ring.Drain()); err != nil {
		sh.ss.met.SessionReplans.With(ReplanError).Inc()
		return
	}
	sess.st = st
	sh.ss.met.SessionReplans.With(ReplanDrift).Inc()
}
