package rooted

import (
	"math"

	"repro/internal/metric"
	"repro/internal/tsp"
)

// BalanceTours post-processes a q-rooted solution towards the min-max
// objective of the companion k-charger problem (Xu, Liang & Lin,
// "Approximation algorithms for min-max cycle cover problems"):
// repeatedly take the longest tour and try to hand one of its stops to
// another tour (re-inserting at the receiver's cheapest position and
// locally re-routing the donor) while the maximum tour length strictly
// decreases. The total cost may grow — that is the min-max/min-sum
// trade-off the paper's Section II discusses.
//
// The returned solution covers exactly the same sensors, rooted at the
// same depots. maxMoves bounds the number of relocations (0 means a
// default of 4x the sensor count).
func BalanceTours(sp metric.Space, sol Solution, maxMoves int) Solution {
	// One type switch up front: over a Dense space the relocation
	// search runs with candidate lists shortlisting insertion points
	// when the instance is large enough to amortize building them.
	if d, ok := metric.AsDense(sp); ok {
		return balanceTours(d, autoBalanceLists(d, sol), sol, maxMoves, nil)
	}
	return balanceTours(sp, nil, sol, maxMoves, nil)
}

// autoBalanceLists mirrors the tsp package's auto-build policy: lists
// pay off once the solution is big and the space is not much larger
// than what the tours actually visit.
func autoBalanceLists(d metric.Dense, sol Solution) *metric.NearestLists {
	n := len(sol.Tours)
	for _, t := range sol.Tours {
		n += len(t.Stops)
	}
	if n < 64 || d.Len() > 4*n {
		return nil
	}
	return d.NearestLists(metric.DefaultNearest)
}

// balanceTours is the relocation search behind BalanceTours. nl, when
// non-nil, must have been built from sp; the removal 2-opt and the
// insertion scan then run their exact candidate-list sweeps, so the
// relocation sequence and final solution are bit-identical to nl ==
// nil. A nil sc means "allocate privately".
func balanceTours[S metric.Space](sp S, nl *metric.NearestLists, sol Solution, maxMoves int, sc *tsp.Scratch) Solution {
	if nl != nil && sc == nil {
		sc = tsp.NewScratch()
	}
	out := Solution{ForestWeight: sol.ForestWeight}
	out.Tours = make([]Tour, len(sol.Tours))
	for i, t := range sol.Tours {
		out.Tours[i] = Tour{Depot: t.Depot, Stops: append([]int(nil), t.Stops...), Cost: t.Cost}
	}
	nStops := 0
	for _, t := range out.Tours {
		nStops += len(t.Stops)
	}
	if maxMoves <= 0 {
		maxMoves = 4 * nStops
	}
	if len(out.Tours) < 2 {
		return out
	}
	for move := 0; move < maxMoves; move++ {
		// Longest tour is the donor.
		donor := 0
		for i, t := range out.Tours {
			if t.Cost > out.Tours[donor].Cost {
				donor = i
			}
		}
		if len(out.Tours[donor].Stops) == 0 {
			break
		}
		maxLen := out.Tours[donor].Cost
		bestStop, bestRecv, bestNewMax := -1, -1, maxLen
		var bestDonor, bestRecvTour Tour
		for si, s := range out.Tours[donor].Stops {
			donorWithout := removeStop(sp, nl, out.Tours[donor], si, sc)
			for ri := range out.Tours {
				if ri == donor {
					continue
				}
				recvWith := insertCheapest(sp, nl, out.Tours[ri], s, sc)
				newMax := math.Max(donorWithout.Cost, recvWith.Cost)
				for oi, o := range out.Tours {
					if oi != donor && oi != ri {
						newMax = math.Max(newMax, o.Cost)
					}
				}
				if newMax < bestNewMax-1e-9 {
					bestNewMax = newMax
					bestStop, bestRecv = si, ri
					bestDonor, bestRecvTour = donorWithout, recvWith
				}
			}
		}
		if bestStop < 0 {
			break // no improving relocation
		}
		out.Tours[donor] = bestDonor
		out.Tours[bestRecv] = bestRecvTour
	}
	return out
}

// removeStop returns tour t without its si-th stop, lightly re-optimized
// with 2-opt (candidate-list pruned when nl is non-nil).
func removeStop[S metric.Space](sp S, nl *metric.NearestLists, t Tour, si int, sc *tsp.Scratch) Tour {
	stops := make([]int, 0, len(t.Stops)-1)
	stops = append(stops, t.Stops[:si]...)
	stops = append(stops, t.Stops[si+1:]...)
	nt := Tour{Depot: t.Depot, Stops: stops}
	if len(stops) > 2 {
		v := nt.Vertices()
		v, _ = tsp.TwoOptLists(sp, nl, v, 2, sc)
		nt.Stops = v[1:]
	}
	nt.Cost = tsp.Cost(sp, nt.Vertices())
	return nt
}

// insertCheapest inserts sensor s into tour t at the position that
// increases its length least (tsp.InsertionPoint, candidate-list pruned
// when nl is non-nil).
func insertCheapest[S metric.Space](sp S, nl *metric.NearestLists, t Tour, s int, sc *tsp.Scratch) Tour {
	verts := t.Vertices()
	bestPos, _ := tsp.InsertionPoint(sp, nl, verts, s, sc)
	stops := make([]int, 0, len(t.Stops)+1)
	stops = append(stops, verts[1:bestPos]...)
	stops = append(stops, s)
	stops = append(stops, verts[bestPos:]...)
	nt := Tour{Depot: t.Depot, Stops: stops}
	nt.Cost = tsp.Cost(sp, nt.Vertices())
	return nt
}
