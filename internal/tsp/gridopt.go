package tsp

import (
	"repro/internal/metric"
)

// RefineTourGrid runs the 2-opt + Or-opt polish on one tour of a Grid
// space without materializing any per-tour Dense block: a grid
// sub-index over the tour's vertices supplies both the coordinate view
// the sweeps read and the O(m·k) candidate lists that prune them. All
// buffers — the sub-index, the lists, the local tour and the sweep
// arenas — come from sc, so a pooled Scratch takes per-tour allocations
// to zero. The tour is refined in place and returned.
//
// The sweeps are TwoOptLists and OrOptLists instantiated over
// metric.Coords. Coords.Dist is the same math.Hypot the Dense build
// evaluates, so every comparison sees the bits a flattened sub-matrix
// would hold; what disappears is the 8m²-byte flatten, at the price of
// one hypot per distance read instead of one array load.
//
// There is no length ceiling: this replaces the former flatten-based
// path whose gridRefineCap=4096 skipped long tours entirely, which at
// n=1M meant no refinement at all. Results are bit-identical to that
// path wherever it ran (see gridopt_test.go).
func RefineTourGrid(g *metric.Grid, tour []int, maxRounds int, sc *Scratch) []int {
	m := len(tour)
	if m < 4 {
		return tour
	}
	if sc == nil {
		sc = NewScratch()
	}
	g.SubIndexInto(&sc.sub, tour)
	sc.sub.BuildLists(&sc.lists, metric.DefaultNearest)
	cs := sc.sub.Coords()
	local := sc.locals(m)
	for i := range local {
		local[i] = i
	}
	local, _ = TwoOptLists(cs, &sc.lists, local, maxRounds, sc)
	local, _ = OrOptLists(cs, &sc.lists, local, maxRounds, sc)
	// Map the permuted local order back onto the caller's vertex ids.
	orig := sc.ints(m)
	copy(orig, tour)
	for i, li := range local {
		tour[i] = orig[li]
	}
	return tour
}
