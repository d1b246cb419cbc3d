package serve

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/delta"
	"repro/internal/experiment"
)

// catchUpBatch is the i-th batch of the catch-up tests' churn: two
// joins (cycle above τ₁, so never structural) and the leave of an
// original sensor.
func catchUpBatch(i int, tau1 float64) []delta.Op {
	return []delta.Op{
		{Kind: delta.OpJoin, X: float64(20 + i*37%960), Y: float64(15 + i*53%960), Cycle: tau1 * 2.5},
		{Kind: delta.OpJoin, X: float64(40 + i*71%920), Y: float64(35 + i*29%920), Cycle: tau1 * 3},
		{Kind: delta.OpLeave, ID: i},
	}
}

// reconcileNow starts a reconciling replan of session id on its shard,
// as a drift trip would: in the background, or inline under SyncReplan.
func reconcileNow(t *testing.T, s *Server, id string) {
	t.Helper()
	sh, err := s.Sessions().shardOf(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.do(func() { sh.startReconcile(sh.sessions[id]) }); err != nil {
		t.Fatal(err)
	}
}

// waitReplans polls until session id reports want replans, the event a
// background install produces.
func waitReplans(t *testing.T, s *Server, id string, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := s.Sessions().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Replans == want {
			return
		}
		if info.Replans > want || time.Now().After(deadline) {
			t.Fatalf("session reports %d replans, want %d", info.Replans, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// planJSON is a session's whole current plan — version, topology
// fingerprint, cost, drift and every tour — as comparable bytes.
func planJSON(t *testing.T, s *Server, id string) string {
	t.Helper()
	view, err := s.Sessions().Plan(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReconcileCatchUpMatchesSync pins the catch-up install: batches
// that land while a background reconcile replans and replays off the
// shard leave the session in exactly the state a synchronous replan at
// the same point reaches — same version, fingerprint and tours. Under
// -race it also checks that the fresh state, now mutated on the replan
// goroutine, shares nothing with the live one.
func TestReconcileCatchUpMatchesSync(t *testing.T) {
	net := testNetwork(t, 3000, 4, 71)
	// A drift budget no churn reaches: the only reconcile is the one
	// the test starts, so both sessions replan exactly once.
	async := newSessionServer(t, Config{Workers: 2, Sessions: SessionConfig{MaxDrift: 1e9}})
	inline := newSessionServer(t, Config{Workers: 2, Sessions: SessionConfig{MaxDrift: 1e9, SyncReplan: true}})
	var ids [2]string
	var tau1 float64
	for i, s := range []*Server{async, inline} {
		info, err := s.Sessions().Create(NewRequest(net, experiment.AlgoMTD, 64))
		if err != nil {
			t.Fatal(err)
		}
		ids[i], tau1 = info.ID, info.Tau1
	}
	const batches = 60
	for i, s := range []*Server{async, inline} {
		for b := 0; b < batches; b++ {
			if b == 5 {
				reconcileNow(t, s, ids[i])
			}
			if _, err := s.Sessions().Delta(ids[i], catchUpBatch(b, tau1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitReplans(t, async, ids[0], 1)
	if got := async.Metrics().SessionReplans.Value(ReplanDrift); got != 1 {
		t.Fatalf("background reconciles installed: %d, want 1", got)
	}
	a, b := planJSON(t, async, ids[0]), planJSON(t, inline, ids[1])
	if a != b {
		t.Fatalf("background reconcile diverged from the synchronous one:\nasync %.400s\nsync  %.400s", a, b)
	}
}

// TestReconcileCatchUpOverflow pins the overflow path with catch-up in
// place: batches that overflow the ring before the replan drains it
// discard that replan, and the retriggered one — from a snapshot taken
// after them — installs the plan a synchronous replan at that point
// gives.
func TestReconcileCatchUpOverflow(t *testing.T) {
	net := testNetwork(t, 600, 3, 72)
	async := newSessionServer(t, Config{Workers: 2, Sessions: SessionConfig{MaxDrift: 1e9, Ring: 1}})
	inline := newSessionServer(t, Config{Workers: 2, Sessions: SessionConfig{MaxDrift: 1e9, SyncReplan: true}})
	infoA, err := async.Sessions().Create(NewRequest(net, experiment.AlgoMTD, 64))
	if err != nil {
		t.Fatal(err)
	}
	infoS, err := inline.Sessions().Create(NewRequest(net, experiment.AlgoMTD, 64))
	if err != nil {
		t.Fatal(err)
	}
	// One shard job starts the replan and lands three batches, so the
	// ring of one overflows before the replan goroutine can drain it.
	sh, err := async.Sessions().shardOf(infoA.ID)
	if err != nil {
		t.Fatal(err)
	}
	var derr error
	if err := sh.do(func() {
		sh.startReconcile(sh.sessions[infoA.ID])
		for b := 0; b < 3 && derr == nil; b++ {
			_, derr = sh.applyDelta(infoA.ID, catchUpBatch(b, infoA.Tau1))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if derr != nil {
		t.Fatal(derr)
	}
	for b := 0; b < 3; b++ {
		if _, err := inline.Sessions().Delta(infoS.ID, catchUpBatch(b, infoS.Tau1)); err != nil {
			t.Fatal(err)
		}
	}
	reconcileNow(t, inline, infoS.ID)
	waitReplans(t, async, infoA.ID, 1)
	if got := async.Metrics().SessionReplans.Value(ReplanOverflow); got != 1 {
		t.Fatalf("overflowed reconciles: %d, want 1", got)
	}
	if got := async.Metrics().SessionReplans.Value(ReplanDrift); got != 1 {
		t.Fatalf("installed reconciles: %d, want 1", got)
	}
	a, b := planJSON(t, async, infoA.ID), planJSON(t, inline, infoS.ID)
	if a != b {
		t.Fatalf("retriggered reconcile diverged from the synchronous one:\nasync %.400s\nsync  %.400s", a, b)
	}
}
