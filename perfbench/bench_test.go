package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/disturb"
	"repro/internal/rng"
)

// inputs returns every input a workload generates from seed, at toy
// scale, as bytes.
func inputs(t *testing.T, workload string, seed uint64) []byte {
	t.Helper()
	var parts []any
	switch workload {
	case "figs-paper":
		for _, c := range append(figCells(seed, figsToy, 0), figCells(seed, figsToy, 1)...) {
			net, err := c.p.Network()
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, c.fig, c.p, net)
		}
	case "serve-50k":
		for tenant := 0; tenant < serveToy.tenants; tenant++ {
			net, err := serveNet(seed, serveToy, tenant, nil)
			if err != nil {
				t.Fatal(err)
			}
			s := newMirror(net, seed, tenant)
			parts = append(parts, net)
			for i := 0; i < 4; i++ {
				ops, apply := churnBatch(s.ops, s.slots, s.nAlive, serveBatch)
				s.slots, s.nAlive = apply(s.slots, s.nAlive)
				parts = append(parts, ops)
			}
		}
	case "robust-mc":
		reps, err := robustSetup(rng.New(seed), robustToy, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reps {
			m := disturb.Standard(r.disturb, robustIntensity, disturb.DefaultParams())
			parts = append(parts, r.net, m.TravelFactor(1, 0, 2), m.RateFactor(3, 7.5), m.ObsDelay(4, 5), m.Windows(r.net.Q(), r.cfg.T))
		}
	}
	b, err := json.Marshal(parts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			a, b, c := inputs(t, w, 7), inputs(t, w, 7), inputs(t, w, 8)
			if !bytes.Equal(a, b) {
				t.Errorf("the same seed generated different inputs")
			}
			if bytes.Equal(a, c) {
				t.Errorf("different seeds generated the same inputs")
			}
		})
	}
}

// TestToyRuns runs every workload untraced and traced at toy scale: it
// must pass its checks with no failed operation and report exactly its
// metric set.
func TestToyRuns(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			name := w + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				o := options{seed: 3, seconds: 0.3, trace: trace, toy: true, workers: runtime.GOMAXPROCS(0), log: io.Discard}
				out, err := workloads[w](o)
				if err != nil {
					t.Fatal(err)
				}
				if len(out.checks) > 0 {
					t.Errorf("checks failed: %s", strings.Join(out.checks, "; "))
				}
				if out.attempted < 1 || out.failed != 0 {
					t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(out.metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(out.metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.name)
					case got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %+v", m.name, got)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				// Toy cells last milliseconds, so hand-offs between them weigh
				// more than at full scale, where coverage must reach 0.9.
				if c := out.metrics["trace.coverage_ratio"].Value; trace && (c < 0.5 || c > 1.0001) {
					t.Errorf("trace coverage %v outside [0.5, 1]", c)
				}
			})
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "figs-paper", "--seconds", "0"},
		{"--workload", "figs-paper", "--trace", "2"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code == 0 || stdout.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
