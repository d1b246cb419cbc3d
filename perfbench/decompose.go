package main

import (
	"math"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/rooted"
	"repro/internal/sched"
	"repro/internal/wsn"
)

// decompose rebuilds core.PlanFixed's plan (base 2, no slack) from the
// public pieces it is made of, timing each: class rounding, one
// rooted.MSF per class prefix, then rooted.ToursFromForest. It returns
// the rebuilt schedule's cost, which must equal PlanFixed's exactly on
// the same space. rooted.MSF is serial where PlanFixed may shard its
// Borůvka rounds over workers; the forest is identical either way.
func decompose(rec *recorder, net *wsn.Network, space metric.Space, T float64, workers int) (float64, error) {
	t0 := rec.start()
	tau1 := core.SortedCycles(net)[0]
	cycles := net.Cycles()
	K := 0
	ks := make([]int, len(cycles))
	for i, c := range cycles {
		ks[i] = core.ClassIndex(c, tau1, 2)
		K = max(K, ks[i])
	}
	classes := make([][]int, K+1)
	for i, k := range ks {
		classes[k] = append(classes[k], i)
	}
	prefixes := make([][]int, K+1)
	var prefix []int
	for k := range classes {
		prefix = append(prefix, classes[k]...)
		prefixes[k] = prefix[:len(prefix):len(prefix)]
	}
	rec.span("core.classes", t0)

	depots := net.DepotIndices()
	sols := make([]rooted.Solution, K+1)
	for k := K; k >= 0; k-- {
		tm := rec.start()
		f := rooted.MSF(space, depots, prefixes[k])
		rec.span("rooted.msf", tm)
		rec.add("rooted.msf.sensors", float64(len(prefixes[k])))
		tt := rec.start()
		sols[k] = rooted.ToursFromForest(space, f, rooted.Options{Workers: workers})
		rec.span("rooted.tours", tt)
	}
	s := &sched.Schedule{T: T}
	for j := 1; ; j++ {
		t := float64(j) * tau1
		if t >= T-1e-9 {
			break
		}
		s.Rounds = append(s.Rounds, sched.Round{Time: t, Tours: sols[core.RoundOrder(j, 2, K)].Tours})
	}
	if err := s.Verify(cycles, 1e-6); err != nil {
		return math.NaN(), err
	}
	return s.Cost(), nil
}
