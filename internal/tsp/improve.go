package tsp

import "repro/internal/metric"

// TwoOpt improves tour in place by repeatedly reversing segments while an
// improving move exists, preserving tour[0] as the fixed starting vertex
// (the depot of a charging tour must stay first). maxRounds bounds the
// number of full improvement sweeps; pass a negative value for "until
// convergence". It returns the improved tour and the number of improving
// moves applied.
//
// Complexity is O(n^2) per sweep. eps guards against endless loops on
// floating-point noise.
//
// When sp is a metric.Dense the sweep runs TwoOptLists instantiated
// over the concrete Dense, with candidate lists on instances large
// enough to amortize building them (see candidates.go). The move
// sequence (and hence the result) is identical on all paths.
func TwoOpt(sp metric.Space, tour []int, maxRounds int) ([]int, int) {
	if d, ok := metric.AsDense(sp); ok {
		return TwoOptLists(d, autoLists(d, len(tour)), tour, maxRounds, nil)
	}
	return twoOpt(sp, tour, maxRounds)
}

func twoOpt[S metric.Space](sp S, tour []int, maxRounds int) ([]int, int) {
	const eps = 1e-9
	n := len(tour)
	moves := 0
	if n < 4 {
		return tour, 0
	}
	for round := 0; maxRounds < 0 || round < maxRounds; round++ {
		improved := false
		for i := 0; i < n-1; i++ {
			a, b := tour[i], tour[(i+1)%n]
			dab := sp.Dist(a, b)
			for j := i + 2; j < n; j++ {
				if i == 0 && j == n-1 {
					continue // would reverse the whole tour
				}
				c, d := tour[j], tour[(j+1)%n]
				delta := sp.Dist(a, c) + sp.Dist(b, d) - dab - sp.Dist(c, d)
				if delta < -eps {
					// Reverse tour[i+1..j].
					for l, r := i+1, j; l < r; l, r = l+1, r-1 {
						tour[l], tour[r] = tour[r], tour[l]
					}
					b = tour[(i+1)%n]
					dab = sp.Dist(a, b)
					improved = true
					moves++
				}
			}
		}
		if !improved {
			break
		}
	}
	return tour, moves
}

// OrOpt improves tour in place by relocating chains of 1, 2 or 3
// consecutive vertices to a better position, preserving tour[0]. It
// complements TwoOpt: segment reversal cannot express single-vertex
// relocation cheaply. Returns the tour and the number of moves applied.
// Like TwoOpt it dispatches to OrOptLists on metric.Dense.
func OrOpt(sp metric.Space, tour []int, maxRounds int) ([]int, int) {
	if d, ok := metric.AsDense(sp); ok {
		return OrOptLists(d, autoLists(d, len(tour)), tour, maxRounds, nil)
	}
	return orOpt(sp, tour, maxRounds)
}

func orOpt[S metric.Space](sp S, tour []int, maxRounds int) ([]int, int) {
	const eps = 1e-9
	n := len(tour)
	moves := 0
	if n < 5 {
		return tour, 0
	}
	at := func(i int) int { return tour[((i%n)+n)%n] }
	for round := 0; maxRounds < 0 || round < maxRounds; round++ {
		improved := false
		for segLen := 1; segLen <= 3; segLen++ {
			for i := 1; i+segLen <= n; i++ { // never move tour[0]
				p0 := at(i - 1)
				s0 := tour[i]
				s1 := tour[i+segLen-1]
				p1 := at(i + segLen)
				removeGain := sp.Dist(p0, s0) + sp.Dist(s1, p1) - sp.Dist(p0, p1)
				if removeGain <= eps {
					continue
				}
				bestJ, bestDelta := -1, -eps
				for j := 0; j < n; j++ {
					// Insert after position j; skip positions inside
					// or adjacent to the segment.
					if j >= i-1 && j <= i+segLen-1 {
						continue
					}
					a := tour[j]
					b := at(j + 1)
					insCost := sp.Dist(a, s0) + sp.Dist(s1, b) - sp.Dist(a, b)
					if delta := insCost - removeGain; delta < bestDelta {
						bestJ, bestDelta = j, delta
					}
				}
				if bestJ < 0 {
					continue
				}
				tour = relocate(tour, i, segLen, bestJ)
				improved = true
				moves++
			}
		}
		if !improved {
			break
		}
	}
	return tour, moves
}

// relocate moves the segment tour[i:i+segLen] so it follows the vertex
// currently at index j (j outside the segment and not i-1), in place:
// the gap between the segment and its target shifts over, the segment
// drops in behind the target, and nothing is allocated (segLen <= 3).
func relocate(tour []int, i, segLen, j int) []int {
	var seg [3]int
	copy(seg[:segLen], tour[i:i+segLen])
	if j > i {
		copy(tour[i:], tour[i+segLen:j+1])
		copy(tour[j-segLen+1:j+1], seg[:segLen])
	} else {
		copy(tour[j+1+segLen:i+segLen], tour[j+1:i])
		copy(tour[j+1:j+1+segLen], seg[:segLen])
	}
	return tour
}
