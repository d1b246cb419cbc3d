package rooted

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/metric"
)

// gridAndDense returns a grid-backed and a dense-backed view of the
// same random point set, so the two MSF code paths can be compared on
// bit-identical distances.
func gridAndDense(r *rand.Rand, n int) (*metric.Grid, metric.Dense, []geom.Point) {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
	}
	return metric.NewGrid(pts), metric.Materialize(metric.NewEuclidean(pts)), pts
}

// TestBoruvkaMatchesPrim is the exactness property of the grid MSF
// path: over random instances with n ≤ 300 and q ≤ 8, the Borůvka
// forest built from the grid index has the same weight as the Prim
// forest from the dense matrix (the optimum is unique in weight), and
// both validate against the same depot/sensor sets. Point coordinates
// are continuous, so the minimum forest is almost surely unique and
// the two parent structures must agree exactly.
func TestBoruvkaMatchesPrim(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, n := range []int{3, 10, 47, 120, 300} {
		for _, q := range []int{1, 2, 5, 8} {
			if q >= n {
				continue
			}
			g, d, _ := gridAndDense(r, n)
			depots, sensors := splitIndices(r, n, q)
			fg := MSF(g, depots, sensors)
			fd := MSF(d, depots, sensors)
			if err := fg.Validate(g, depots, sensors); err != nil {
				t.Fatalf("n=%d q=%d: grid forest invalid: %v", n, q, err)
			}
			if math.Abs(fg.Weight-fd.Weight) > 1e-9*(1+fd.Weight) {
				t.Fatalf("n=%d q=%d: grid weight %.12g != dense weight %.12g", n, q, fg.Weight, fd.Weight)
			}
			for v := range fg.Parent {
				if fg.Parent[v] != fd.Parent[v] {
					t.Fatalf("n=%d q=%d: parent[%d] = %d (grid) vs %d (dense)",
						n, q, v, fg.Parent[v], fd.Parent[v])
				}
			}
		}
	}
}

// TestBoruvkaDeterministic runs the grid MSF twice on the same input
// and requires byte-identical results.
func TestBoruvkaDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	g, _, _ := gridAndDense(r, 200)
	depots, sensors := splitIndices(r, 200, 6)
	a, _ := json.Marshal(MSF(g, depots, sensors))
	b, _ := json.Marshal(MSF(g, depots, sensors))
	if string(a) != string(b) {
		t.Fatal("grid MSF not deterministic across runs")
	}
}

// TestBoruvkaTies exercises the lexicographic (weight, v, u) edge
// tie-breaking on a lattice, where almost every candidate edge has an
// equal-weight twin: the grid forest must still be a valid minimum
// forest of the same weight as the dense Prim forest.
func TestBoruvkaTies(t *testing.T) {
	var pts []geom.Point
	for y := 0; y < 9; y++ {
		for x := 0; x < 9; x++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	g := metric.NewGrid(pts)
	d := metric.Materialize(metric.NewEuclidean(pts))
	r := rand.New(rand.NewSource(23))
	depots, sensors := splitIndices(r, len(pts), 4)
	fg := MSF(g, depots, sensors)
	fd := MSF(d, depots, sensors)
	if err := fg.Validate(g, depots, sensors); err != nil {
		t.Fatalf("lattice grid forest invalid: %v", err)
	}
	if math.Abs(fg.Weight-fd.Weight) > 1e-9*(1+fd.Weight) {
		t.Fatalf("lattice: grid weight %.12g != dense weight %.12g", fg.Weight, fd.Weight)
	}
}

// TestGridToursMatchDense checks the full Algorithm-2 pipeline on the
// grid path — MSF, double-tree tours, refinement — against the dense
// path on the same points: identical stop sequences and costs within
// float tolerance.
func TestGridToursMatchDense(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for _, refine := range []bool{false, true} {
		g, d, _ := gridAndDense(r, 250)
		depots, sensors := splitIndices(r, 250, 6)
		opt := Options{Refine: refine}
		sg := Tours(g, depots, sensors, opt)
		optD := opt
		optD.Neighbors = d.NearestLists(metric.DefaultNearest)
		sd := Tours(d, depots, sensors, optD)
		if err := sg.Validate(g, depots, sensors); err != nil {
			t.Fatalf("refine=%v: grid solution invalid: %v", refine, err)
		}
		if len(sg.Tours) != len(sd.Tours) {
			t.Fatalf("refine=%v: %d grid tours vs %d dense tours", refine, len(sg.Tours), len(sd.Tours))
		}
		for i := range sg.Tours {
			tg, td := sg.Tours[i], sd.Tours[i]
			if tg.Depot != td.Depot || len(tg.Stops) != len(td.Stops) {
				t.Fatalf("refine=%v tour %d: depot/len mismatch", refine, i)
			}
			for j := range tg.Stops {
				if tg.Stops[j] != td.Stops[j] {
					t.Fatalf("refine=%v tour %d stop %d: %d (grid) vs %d (dense)",
						refine, i, j, tg.Stops[j], td.Stops[j])
				}
			}
			if math.Abs(tg.Cost-td.Cost) > 1e-9*(1+td.Cost) {
				t.Fatalf("refine=%v tour %d: cost %.12g (grid) vs %.12g (dense)",
					refine, i, tg.Cost, td.Cost)
			}
		}
	}
}

// TestParallelToursMatchSerial pins the intra-plan parallelism
// contract: with Workers > 1 the solution must be byte-identical to
// the serial build, on both the grid and dense paths, with refinement
// on. Run under -race this also proves the worker pool is data-race
// free.
func TestParallelToursMatchSerial(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	g, d, _ := gridAndDense(r, 300)
	depots, sensors := splitIndices(r, 300, 8)
	for name, sp := range map[string]metric.Space{"grid": g, "dense": d} {
		opt := Options{Refine: true}
		if dd, ok := metric.AsDense(sp); ok {
			opt.Neighbors = dd.NearestLists(metric.DefaultNearest)
		}
		serial, _ := json.Marshal(Tours(sp, depots, sensors, opt))
		optP := opt
		optP.Workers = 8
		parallel, _ := json.Marshal(Tours(sp, depots, sensors, optP))
		if string(serial) != string(parallel) {
			t.Fatalf("%s: parallel solution differs from serial", name)
		}
	}
}

// tieHeavyInstance is a point set above boruvkaParallelGate built to
// maximize exact ties in the Borůvka merge: a 48×48 unit lattice (every
// sensor has four equidistant neighbors), a duplicate of each of its
// first 300 points (zero-distance edges), and depots at lattice-square
// centers plus one on a lattice point, so whole diagonals of sensors
// are equidistant from two depots and each depot from four sensors.
func tieHeavyInstance() (pts []geom.Point, depots, sensors []int) {
	for y := 0; y < 48; y++ {
		for x := 0; x < 48; x++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	pts = append(pts, pts[:300]...)
	for i := range pts {
		sensors = append(sensors, i)
	}
	for _, d := range []geom.Point{geom.Pt(11.5, 11.5), geom.Pt(35.5, 35.5), geom.Pt(23.5, 23.5), geom.Pt(24, 0)} {
		depots = append(depots, len(pts))
		pts = append(pts, d)
	}
	return pts, depots, sensors
}

// bruteBoruvka is the reference for msfBoruvka's tie-breaking: the
// same rounds over the same union-find — each component's
// (weight, v, u)-lexicographic minimum edge, merged in component order —
// but every minimum found by scanning all sensor pairs, with no index
// and no pruning. It returns the un-contracted parent array.
func bruteBoruvka(pts []geom.Point, depots, sensors []int) []int {
	m := len(sensors)
	toRoot := make([]float64, m)
	nearest := make([]int, m)
	for i, s := range sensors {
		toRoot[i] = math.Inf(1)
		for _, d := range depots {
			if w := pts[s].Dist(pts[d]); w < toRoot[i] {
				toRoot[i], nearest[i] = w, d
			}
		}
	}
	uf := graph.NewUnionFind(m + 1)
	adj := make([][]int, m+1)
	comp := make([]int, m+1)
	bestW := make([]float64, m+1)
	bestV := make([]int, m+1)
	bestU := make([]int, m+1)
	for uf.Sets() > 1 {
		for v := range comp {
			comp[v] = uf.Find(v)
			bestW[v] = math.Inf(1)
		}
		offer := func(c int, w float64, v, u int) {
			if w < bestW[c] || (w == bestW[c] && (v < bestV[c] || (v == bestV[c] && u < bestU[c]))) { //lint:allow floateq lexicographic (weight, v, u) tie-break, the order under test
				bestW[c], bestV[c], bestU[c] = w, v, u
			}
		}
		for v := 0; v < m; v++ {
			for u := 0; u < m; u++ {
				if comp[u] != comp[v] {
					offer(comp[v], pts[sensors[v]].Dist(pts[sensors[u]]), v, u)
				}
			}
			if comp[v] != comp[m] {
				offer(comp[v], toRoot[v], v, m)
				offer(comp[m], toRoot[v], v, m)
			}
		}
		for c := 0; c <= m; c++ {
			if !math.IsInf(bestW[c], 1) && uf.Union(bestV[c], bestU[c]) {
				adj[bestV[c]] = append(adj[bestV[c]], bestU[c])
				adj[bestU[c]] = append(adj[bestU[c]], bestV[c])
			}
		}
	}
	parent := make([]int, len(pts))
	for i := range parent {
		parent[i] = NotInForest
	}
	for _, d := range depots {
		parent[d] = -1
	}
	seen := make([]bool, m+1)
	seen[m] = true
	for queue := []int{m}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				if v == m {
					parent[sensors[u]] = nearest[u]
				} else {
					parent[sensors[u]] = sensors[v]
				}
				queue = append(queue, u)
			}
		}
	}
	return parent
}

// TestBoruvkaWorkersTieParity pins the pruning rules on tie-heavy
// inputs large enough for the sharded query phase: for every worker
// count the forest is exactly the brute-force lexicographic reference's
// — so no tie was decided by a pruned query — and its weight equals the
// dense Prim forest's.
func TestBoruvkaWorkersTieParity(t *testing.T) {
	pts, depots, sensors := tieHeavyInstance()
	if len(sensors) < boruvkaParallelGate {
		t.Fatalf("instance has %d sensors, below the parallel gate %d", len(sensors), boruvkaParallelGate)
	}
	g := metric.NewGrid(pts)
	want := bruteBoruvka(pts, depots, sensors)
	prim := MSF(metric.Materialize(metric.NewEuclidean(pts)), depots, sensors)
	for _, workers := range []int{1, 2, 3, 8} {
		f := msf(g, depots, sensors, workers)
		if err := f.Validate(g, depots, sensors); err != nil {
			t.Fatalf("workers=%d: forest invalid: %v", workers, err)
		}
		if math.Abs(f.Weight-prim.Weight) > 1e-9*(1+prim.Weight) {
			t.Fatalf("workers=%d: weight %.12g, dense Prim %.12g", workers, f.Weight, prim.Weight)
		}
		for v := range want {
			if f.Parent[v] != want[v] {
				t.Fatalf("workers=%d: parent[%d] = %d, brute-force reference %d", workers, v, f.Parent[v], want[v])
			}
		}
	}
}

// FuzzBoruvkaWorkers lets the fuzzer pick clustered inputs — cluster
// count and spread down to fully coincident points, a duplicated share,
// depot count — at sizes above boruvkaParallelGate, and requires the
// sharded forest (Workers 3) to be byte-identical to the serial one.
func FuzzBoruvkaWorkers(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(5000), uint8(0), uint8(3))
	f.Add(int64(2), uint8(1), uint16(0), uint8(50), uint8(1))    // one coincident blob
	f.Add(int64(3), uint8(12), uint16(200), uint8(90), uint8(8)) // mostly duplicates
	f.Fuzz(func(t *testing.T, seed int64, ncRaw uint8, spreadMilli uint16, dupRaw, qRaw uint8) {
		r := rand.New(rand.NewSource(seed))
		nc := int(ncRaw)%16 + 1
		spread := float64(spreadMilli) / 1000
		dupFrac := float64(dupRaw%101) / 100
		q := int(qRaw)%8 + 1
		n := boruvkaParallelGate + 64
		centers := make([]geom.Point, nc)
		for i := range centers {
			centers[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
		}
		pts := make([]geom.Point, 0, n+q)
		for len(pts) < n {
			if len(pts) > 0 && r.Float64() < dupFrac {
				pts = append(pts, pts[r.Intn(len(pts))])
				continue
			}
			c := centers[r.Intn(nc)]
			pts = append(pts, geom.Pt(c.X+r.NormFloat64()*spread, c.Y+r.NormFloat64()*spread))
		}
		for len(pts) < n+q {
			pts = append(pts, geom.Pt(r.Float64()*1000, r.Float64()*1000))
		}
		depots, sensors := splitIndices(r, len(pts), q)
		g := metric.NewGrid(pts)
		a, _ := json.Marshal(msf(g, depots, sensors, 1))
		b, _ := json.Marshal(msf(g, depots, sensors, 3))
		if string(a) != string(b) {
			t.Fatal("Workers 3 forest differs from Workers 1")
		}
	})
}
