package tsp

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/metric"
)

// clusteredGrid builds a Grid over n points drawn from a handful of
// tight Gaussian-ish clusters plus a sprinkle of uniform noise — the
// occupancy skew that separates a grid index from a dense matrix.
func clusteredGrid(r *rand.Rand, n int) *metric.Grid {
	nc := 3 + r.Intn(4)
	centers := make([]geom.Point, nc)
	for i := range centers {
		centers[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		if r.Float64() < 0.1 {
			pts[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
			continue
		}
		c := centers[r.Intn(nc)]
		pts[i] = geom.Pt(c.X+r.NormFloat64()*5, c.Y+r.NormFloat64()*5)
	}
	return metric.NewGrid(pts)
}

// flattenRefine is the retired flatten-based grid refinement path,
// reconstructed verbatim (minus its gridRefineCap ceiling): materialize
// the tour's vertices into a local Dense, build candidate lists from a
// grid sub-index, run the exact list sweeps on an identity tour, map
// back. It is the reference RefineTourGrid must match bit for bit.
func flattenRefine(g *metric.Grid, tour []int, rounds int, sc *Scratch) []int {
	m := len(tour)
	if m < 4 {
		return tour
	}
	d := metric.NewSub(g, tour).Flatten()
	var nl metric.NearestLists
	g.SubIndex(tour).BuildLists(&nl, metric.DefaultNearest)
	local := make([]int, m)
	for i := range local {
		local[i] = i
	}
	local, _ = TwoOptLists(d, &nl, local, rounds, sc)
	local, _ = OrOptLists(d, &nl, local, rounds, sc)
	out := make([]int, m)
	for i, li := range local {
		out[i] = tour[li]
	}
	return out
}

// TestGridRefinersMatchFlatten is the exactness property the on-grid
// sweeps are built on: TwoOptLists and OrOptLists instantiated over a
// metric.Coords view produce the identical tour and move count as the
// same functions instantiated over the flattened Dense of the same
// vertices, for every list size (complete and truncated) and round
// budget.
func TestGridRefinersMatchFlatten(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	scGrid, scDense := NewScratch(), NewScratch()
	for _, n := range []int{40, 150} {
		g := clusteredGrid(r, n)
		for trial := 0; trial < 6; trial++ {
			m := 8 + r.Intn(n-8)
			members := r.Perm(n)[:m]
			d := metric.NewSub(g, members).Flatten()
			sub := g.SubIndex(members)
			cs := sub.Coords()
			for _, k := range []int{2, 8, metric.DefaultNearest, m + 5} {
				var nl metric.NearestLists
				sub.BuildLists(&nl, k)
				for _, rounds := range []int{1, 3, -1} {
					base := randomTour(r, m)
					wantT := append([]int(nil), base...)
					gotT := append([]int(nil), base...)
					wantT, wantMoves := TwoOptLists(d, &nl, wantT, rounds, scDense)
					gotT, gotMoves := TwoOptLists(cs, &nl, gotT, rounds, scGrid)
					checkSame(t, "TwoOpt", n, m, k, rounds, gotT, wantT, gotMoves, wantMoves)

					wantO := append([]int(nil), wantT...)
					gotO := append([]int(nil), gotT...)
					wantO, wantMoves = OrOptLists(d, &nl, wantO, rounds, scDense)
					gotO, gotMoves = OrOptLists(cs, &nl, gotO, rounds, scGrid)
					checkSame(t, "OrOpt", n, m, k, rounds, gotO, wantO, gotMoves, wantMoves)
				}
			}
		}
	}
}

func checkSame(t *testing.T, name string, n, m, k, rounds int, got, want []int, gotMoves, wantMoves int) {
	t.Helper()
	if gotMoves != wantMoves {
		t.Fatalf("%s n=%d m=%d k=%d rounds=%d: %d moves, flatten path made %d",
			name, n, m, k, rounds, gotMoves, wantMoves)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s n=%d m=%d k=%d rounds=%d: tours diverge at %d:\n got %v\nwant %v",
				name, n, m, k, rounds, i, got, want)
		}
	}
}

// TestRefineTourGridMatchesFlatten pins the end-to-end entry point:
// RefineTourGrid — sub-index, lists, both sweeps, map-back, all through
// one reused Scratch — returns exactly what the retired flatten path
// returned, including on tours longer than the old gridRefineCap would
// have allowed relative to the test sizes here (the cap itself is gone).
func TestRefineTourGridMatchesFlatten(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	sc := NewScratch() // reused across every call: exercises arena reuse
	for _, n := range []int{12, 60, 250} {
		g := clusteredGrid(r, n)
		for trial := 0; trial < 8; trial++ {
			m := 3 + r.Intn(n-3) // includes m<4 no-op tours
			tour := r.Perm(n)[:m]
			want := flattenRefine(g, append([]int(nil), tour...), -1, NewScratch())
			got := RefineTourGrid(g, append([]int(nil), tour...), -1, sc)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d m=%d trial=%d: refined tours diverge at %d:\n got %v\nwant %v",
						n, m, trial, i, got, want)
				}
			}
		}
	}
}
