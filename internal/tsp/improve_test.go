package tsp

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/metric"
)

func TestTwoOptNeverWorsensAndStaysValid(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(60)
		sp := randomSpace(r, n)
		tour := NearestNeighbor(sp, 0)
		before := Cost(sp, tour)
		improved, moves := TwoOpt(sp, tour, -1)
		after := Cost(sp, improved)
		if after > before+1e-9 {
			t.Fatalf("trial %d: 2-opt worsened %g -> %g", trial, before, after)
		}
		if moves > 0 && after >= before {
			t.Fatalf("trial %d: %d moves reported but no improvement", trial, moves)
		}
		if err := Validate(sp, improved, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if improved[0] != 0 {
			t.Fatalf("trial %d: 2-opt moved the start vertex", trial)
		}
	}
}

func TestTwoOptFixesObviousCrossing(t *testing.T) {
	// A self-crossing square tour: 0-2-1-3 crosses; optimal is 0-1-2-3.
	sp := makeSquare()
	tour := []int{0, 2, 1, 3}
	improved, moves := TwoOpt(sp, tour, -1)
	if moves == 0 {
		t.Fatal("2-opt found no move on a crossing tour")
	}
	if c := Cost(sp, improved); !almost(c, 40) {
		t.Errorf("2-opt result cost = %g, want 40", c)
	}
}

// makeSquare returns the corners of a 10x10 square in order.
func makeSquare() metric.Euclidean {
	return metric.NewEuclidean([]geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10),
	})
}

// lineSpace returns collinear points at the given x coordinates.
func lineSpace(xs []float64) metric.Euclidean {
	pts := make([]geom.Point, len(xs))
	for i, x := range xs {
		pts[i] = geom.Pt(x, 0)
	}
	return metric.NewEuclidean(pts)
}

func TestTwoOptTinyTours(t *testing.T) {
	sp := makeSquare()
	for _, tour := range [][]int{{}, {0}, {0, 1}, {0, 1, 2}} {
		got, moves := TwoOpt(sp, append([]int(nil), tour...), -1)
		if moves != 0 || len(got) != len(tour) {
			t.Errorf("2-opt on %v: moves=%d len=%d", tour, moves, len(got))
		}
	}
}

func TestTwoOptRoundBound(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	sp := randomSpace(r, 80)
	tour := NearestNeighbor(sp, 0)
	oneRound, _ := TwoOpt(sp, append([]int(nil), tour...), 1)
	converged, _ := TwoOpt(sp, append([]int(nil), tour...), -1)
	if Cost(sp, converged) > Cost(sp, oneRound)+1e-9 {
		t.Error("full convergence worse than one round")
	}
}

func TestOrOptNeverWorsensAndStaysValid(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 5 + r.Intn(60)
		sp := randomSpace(r, n)
		tour := NearestNeighbor(sp, 0)
		before := Cost(sp, tour)
		improved, _ := OrOpt(sp, tour, -1)
		after := Cost(sp, improved)
		if after > before+1e-9 {
			t.Fatalf("trial %d: Or-opt worsened %g -> %g", trial, before, after)
		}
		if err := Validate(sp, improved, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if improved[0] != tour[0] && improved[0] != 0 {
			t.Fatalf("trial %d: Or-opt moved the start vertex to %d", trial, improved[0])
		}
	}
}

func TestOrOptRelocatesStragglers(t *testing.T) {
	// Points on a line visited in a bad order: 0,3,1,2 (coordinates
	// 0, 30, 10, 20). Or-opt should recover the monotone order.
	sp := lineSpace([]float64{0, 30, 10, 20, 40})
	tour := []int{0, 1, 2, 3, 4}
	improved, _ := OrOpt(sp, tour, -1)
	improved, _ = TwoOpt(sp, improved, -1)
	if c := Cost(sp, improved); c > 80+1e-9 {
		t.Errorf("combined local search cost = %g, want 80", c)
	}
}

func TestImproversComposeWithDoubleTree(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	var worse int
	for trial := 0; trial < 20; trial++ {
		n := 10 + r.Intn(40)
		sp := randomSpace(r, n)
		base := primTour(sp, 0)
		refined := append([]int(nil), base...)
		refined, _ = TwoOpt(sp, refined, -1)
		refined, _ = OrOpt(sp, refined, -1)
		if Cost(sp, refined) > Cost(sp, base)+1e-9 {
			worse++
		}
		if err := Validate(sp, refined, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if worse > 0 {
		t.Errorf("refinement worsened %d/20 tours", worse)
	}
}
