package metric

import (
	"math"
	"sync"

	"repro/internal/geom"
)

// DenseLimit is the point count above which planning layers prefer the
// uniform-grid index over materializing a Dense matrix: an n×n float64
// matrix costs 8n² bytes (≈ 20 GB at n = 50 000), while the grid costs
// O(n) to build and O(n·k) for candidate lists. Below the limit Dense
// stays the default — it is faster per query and keeps small-instance
// results bit-identical to the seed implementation.
const DenseLimit = 4096

// Grid is the sub-quadratic counterpart of Dense: a metric.Space over
// planar points backed by a uniform spatial hash instead of an n×n
// matrix. Dist is computed on demand from the coordinates (exactly the
// same math.Hypot the Dense build uses, so distances agree bit-for-bit
// with a materialized matrix), and the index answers exact nearest-
// neighbor queries by ring expansion in roughly O(1) cells per query on
// uniform inputs.
//
// Coordinates are stored as two flat float64 arrays (structure-of-
// arrays), not []geom.Point: the SoA form is what the index and the
// refiners scan, the full index aliases it instead of copying, and the
// resident cost is 16 bytes per point plus the int32 CSR buckets —
// about half of the former AoS layout (DESIGN.md §13).
//
// Like Dense, a built Grid is read-only and may be shared freely across
// goroutines; the lazily-built full index is guarded by a mutex.
// Rebuild is the one exception: it must not race with any other use.
type Grid struct {
	xs, ys []float64

	mu    sync.Mutex
	built bool
	full  GridIndex
}

// NewGrid returns the grid-indexed space over pts. The coordinates are
// copied into the Grid's flat arrays; pts is not referenced afterwards.
func NewGrid(pts []geom.Point) *Grid {
	g := &Grid{}
	g.Rebuild(pts)
	return g
}

// Rebuild refills g from a new point set, reusing the coordinate and
// index arrays when they are large enough — the arena form of NewGrid,
// for callers (the chargerd worker pool) that build grid after grid.
// Rebuild must not run concurrently with any query on g, and it
// invalidates every index previously returned by Index or SubIndex.
func (g *Grid) Rebuild(pts []geom.Point) {
	n := len(pts)
	g.xs = growFloats(g.xs, n)
	g.ys = growFloats(g.ys, n)
	for i, p := range pts {
		g.xs[i] = p.X
		g.ys[i] = p.Y
	}
	g.mu.Lock()
	g.built = false
	g.mu.Unlock()
}

// growFloats returns s resized to length n, reallocating only when the
// capacity watermark is exceeded.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// Len implements Space.
func (g *Grid) Len() int { return len(g.xs) }

// Dist implements Space with the same math.Hypot evaluation the Dense
// build path uses, so grid and dense distances are bit-identical.
func (g *Grid) Dist(i, j int) float64 {
	return math.Hypot(g.xs[i]-g.xs[j], g.ys[i]-g.ys[j])
}

// Coords returns the concrete coordinate accessor over all points —
// the devirtualized row-accessor hot loops use instead of per-distance
// interface dispatch on Space.
func (g *Grid) Coords() Coords { return Coords{xs: g.xs, ys: g.ys} }

// AsGrid reports the *Grid underlying sp. Hot paths call it once at
// entry — after AsDense fails — to select the sub-quadratic geometric
// path; a false return means "stay on the generic interface path".
func AsGrid(sp Space) (*Grid, bool) {
	g, ok := sp.(*Grid)
	return g, ok
}

// Index returns the grid index over all points, building it on first
// use and caching it until the next Rebuild. The full index aliases the
// Grid's coordinate arrays — no copy — so its resident cost is only the
// CSR buckets.
func (g *Grid) Index() *GridIndex {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.built {
		g.full.xs, g.full.ys = g.xs, g.ys
		g.full.build()
		g.built = true
	}
	return &g.full
}

// SubIndex builds a grid index over the subset of points given by
// members; local index k of the returned index corresponds to space
// index members[k]. The build is O(|members|). The members slice is
// only read during the build.
func (g *Grid) SubIndex(members []int) *GridIndex {
	gi := &GridIndex{}
	g.SubIndexInto(gi, members)
	return gi
}

// SubIndexInto is the arena form of SubIndex: it (re)builds gi in
// place, reusing its backing arrays when they are large enough. When
// members is an identity prefix (members[k] == k for all k) the
// coordinate arrays alias the Grid's storage instead of being copied —
// the common case for the planner, whose sensor sets are 0..m-1.
func (g *Grid) SubIndexInto(gi *GridIndex, members []int) {
	m := len(members)
	prefix := true
	for k, v := range members {
		if v != k {
			prefix = false
			break
		}
	}
	if prefix {
		gi.xs, gi.ys = g.xs[:m], g.ys[:m]
		gi.ownsCoords = false
	} else {
		// A previous aliasing build must not be written through; reuse
		// only arrays this index owns.
		if !gi.ownsCoords {
			gi.xs, gi.ys = nil, nil
		}
		gi.xs = growFloats(gi.xs, m)
		gi.ys = growFloats(gi.ys, m)
		gi.ownsCoords = true
		for k, v := range members {
			gi.xs[k] = g.xs[v]
			gi.ys[k] = g.ys[v]
		}
	}
	gi.build()
}

// NearestLists builds the k-nearest-neighbor candidate lists of the
// whole space from the grid index — the O(n·k)-memory twin of
// Dense.NearestLists, producing bit-identical contents (same neighbors,
// same distances, same (distance, id) order) without ever materializing
// the O(n²) matrix.
func (g *Grid) NearestLists(k int) *NearestLists {
	nl := &NearestLists{}
	g.Index().BuildLists(nl, k)
	return nl
}

// BuildGrid (re)fills nl from g's grid index, reusing nl's backing
// arrays when large enough — the arena form of Grid.NearestLists,
// mirroring NearestLists.Build for the dense path.
func (nl *NearestLists) BuildGrid(g *Grid, k int) { g.Index().BuildLists(nl, k) }

// Coords is a read-only structure-of-arrays view of planar coordinates
// with local indexing — the grid twin of a Dense row accessor. Its Dist
// is the same math.Hypot evaluation as the Dense build, so the values
// the on-grid refiners compare are bit-identical to a flattened
// sub-matrix's entries. Coords is a small value; copying it aliases the
// same backing arrays.
type Coords struct {
	xs, ys []float64
}

// Len returns the number of points in the view.
func (c Coords) Len() int { return len(c.xs) }

// At returns the planar coordinates of local point i — the query form
// geometric anchors (GridIndex.NearestTo) take.
func (c Coords) At(i int) (x, y float64) { return c.xs[i], c.ys[i] }

// Dist returns the Euclidean distance between local points i and j.
func (c Coords) Dist(i, j int) float64 {
	return math.Hypot(c.xs[i]-c.xs[j], c.ys[i]-c.ys[j])
}

// GridIndex is a uniform-grid spatial hash over a (subset of a) point
// set: cells of side `cell` in row-major order, with the members of
// each cell stored contiguously in ascending local id (a CSR layout
// with int32 buckets). It answers two exact queries, both by expanding
// Chebyshev rings of cells around the query point until the geometric
// lower bound of the next ring proves no better candidate can exist:
//
//   - BuildLists: per-vertex k-nearest-neighbor lists, bit-identical to
//     the Dense build (same (distance, id) tie-breaking);
//   - NearestExcluding: nearest member outside the query's component,
//     the inner kernel of the Borůvka q-rooted MSF in internal/rooted.
//
// Ring scans are index-free: a member's cell coordinates are recomputed
// from its position with the same clamped float division the build
// used, so no per-member cell arrays are stored (the former cx/cy pair
// cost 8 bytes per member for values derivable in two flops).
//
// A built GridIndex is read-only and safe for concurrent queries.
type GridIndex struct {
	xs, ys     []float64 // member coordinates; may alias the parent Grid
	ownsCoords bool      // xs/ys are private arrays SubIndexInto may overwrite
	minX, minY float64
	cell       float64 // cell side length, > 0
	nx, ny     int     // grid dimensions, ≥ 1
	start      []int32 // CSR cell offsets, len nx*ny+1
	items      []int32 // member local ids grouped by cell, ascending within a cell
}

// Len returns the number of indexed members.
func (gi *GridIndex) Len() int { return len(gi.xs) }

// Dist returns the Euclidean distance between local members i and j —
// the same math.Hypot the Dense build evaluates, so grid-side and
// dense-side comparisons see identical bits.
func (gi *GridIndex) Dist(i, j int) float64 {
	return math.Hypot(gi.xs[i]-gi.xs[j], gi.ys[i]-gi.ys[j])
}

// Coords returns the coordinate view of the indexed members.
func (gi *GridIndex) Coords() Coords { return Coords{xs: gi.xs, ys: gi.ys} }

// cellOf recomputes member k's cell coordinates from its position —
// exactly the clamped division the build pass used, so scan and build
// always agree on the cell assignment.
func (gi *GridIndex) cellOf(k int) (int, int) {
	cx := clampCell(int((gi.xs[k]-gi.minX)/gi.cell), gi.nx)
	cy := clampCell(int((gi.ys[k]-gi.minY)/gi.cell), gi.ny)
	return cx, cy
}

// build sizes the cells for ~1 member per cell, clamps the cell count
// for degenerate aspect ratios, and fills the CSR buckets, reusing the
// bucket arrays when their capacity allows.
func (gi *GridIndex) build() {
	m := len(gi.xs)
	if m == 0 {
		gi.cell, gi.nx, gi.ny = 1, 1, 1
		gi.start = growInt32(gi.start, 2)
		gi.start[0], gi.start[1] = 0, 0
		gi.items = gi.items[:0]
		return
	}
	minX, maxX := gi.xs[0], gi.xs[0]
	minY, maxY := gi.ys[0], gi.ys[0]
	for k := 1; k < m; k++ {
		minX = math.Min(minX, gi.xs[k])
		maxX = math.Max(maxX, gi.xs[k])
		minY = math.Min(minY, gi.ys[k])
		maxY = math.Max(maxY, gi.ys[k])
	}
	gi.minX, gi.minY = minX, minY
	w, h := maxX-minX, maxY-minY
	// Target ~1 member per cell; fall back to the longest extent for
	// collinear inputs and to a unit cell when every point coincides.
	cell := math.Sqrt(w * h / float64(m))
	if !(cell > 0) {
		cell = math.Max(w, h) / float64(m)
	}
	if !(cell > 0) {
		cell = 1
	}
	// Clamp the total cell count: extreme aspect ratios would otherwise
	// allocate far more cells than members.
	for {
		fx := math.Floor(w/cell) + 1
		fy := math.Floor(h/cell) + 1
		if fx*fy <= 4*float64(m)+16 {
			gi.nx, gi.ny = int(fx), int(fy)
			break
		}
		cell *= 2
	}
	gi.cell = cell

	gi.start = growInt32(gi.start, gi.nx*gi.ny+1)
	for i := range gi.start {
		gi.start[i] = 0
	}
	for k := 0; k < m; k++ {
		cx, cy := gi.cellOf(k)
		gi.start[cy*gi.nx+cx+1]++
	}
	for c := 0; c < gi.nx*gi.ny; c++ {
		gi.start[c+1] += gi.start[c]
	}
	gi.items = growInt32(gi.items, m)
	// Filling ascending by local id keeps each cell's slice sorted — the
	// property the deterministic tie-breaking of both queries relies on.
	// The running cursor borrows start[c+1] (next cell's final offset):
	// after all m inserts every cursor has advanced exactly to that
	// value, so the CSR is restored without a separate cursor array.
	for k := 0; k < m; k++ {
		cx, cy := gi.cellOf(k)
		c := cy*gi.nx + cx
		gi.items[gi.start[c]] = int32(k)
		gi.start[c]++
	}
	for c := gi.nx*gi.ny - 1; c >= 0; c-- {
		gi.start[c+1] = gi.start[c]
	}
	gi.start[0] = 0
}

// growInt32 returns s resized to length n, reallocating only when the
// capacity watermark is exceeded.
func growInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

// clampCell clamps a computed cell coordinate into [0, n-1]; floating-
// point division can land a boundary point one cell outside.
func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// ringLB returns a safe lower bound on the distance from a point to any
// member whose cell lies at Chebyshev ring r of the point's cell: such
// members are at least (r-1)·cell away. The bound is shaved by a
// relative 1e-9 so floating-point rounding in the cell assignment can
// never push it above a true distance — an over-tight bound would prune
// an exact nearest neighbor, and exactness is the whole contract.
func (gi *GridIndex) ringLB(r int) float64 {
	if r <= 1 {
		return 0
	}
	lb := float64(r-1) * gi.cell
	return lb - lb*1e-9
}

// ringUB returns a safe upper bound on the distance from a member to
// any member whose cell lies at Chebyshev ring r of its cell: both
// points sit inside their cells, at most r+1 cells apart on each axis.
// The bound is padded by a relative 1e-6 — far above any rounding in
// the cell assignment — so it can never fall below a true distance.
func (gi *GridIndex) ringUB(r int) float64 {
	return float64(r+1) * gi.cell * (math.Sqrt2 * (1 + 1e-6))
}

// maxRing is the largest ring that can still contain cells.
func (gi *GridIndex) maxRing() int {
	if gi.nx > gi.ny {
		return gi.nx
	}
	return gi.ny
}

// BuildLists (re)fills nl with the k-nearest-neighbor lists of every
// member, by per-vertex ring expansion: ring r is scanned while the
// list is short or the current kth distance is ≥ the ring's lower
// bound (≥, not >, so an equidistant smaller-id member in a farther
// ring can still displace the incumbent — the (distance, id) order must
// match the Dense build exactly). Neighbor ids are local indices of the
// GridIndex. Memory is O(m·k); time is O(m·k) on uniform inputs.
func (gi *GridIndex) BuildLists(nl *NearestLists, k int) {
	m := gi.Len()
	if k > m-1 {
		k = m - 1
	}
	if k < 0 {
		k = 0
	}
	nl.n, nl.k = m, k
	nl.complete = k >= m-1
	if cap(nl.ids) >= m*k {
		nl.ids = nl.ids[:m*k]
	} else {
		nl.ids = make([]int32, m*k)
	}
	if cap(nl.dist) >= m*k {
		nl.dist = nl.dist[:m*k]
	} else {
		nl.dist = make([]float64, m*k)
	}
	if k == 0 {
		return
	}
	maxRing := gi.maxRing()
	for v := 0; v < m; v++ {
		ids := nl.ids[v*k : (v+1)*k]
		ds := nl.dist[v*k : (v+1)*k]
		cnt := 0
		x, y := gi.xs[v], gi.ys[v]
		cx, cy := gi.cellOf(v)
		for r := 0; r <= maxRing; r++ {
			if cnt == k && ds[k-1] < gi.ringLB(r) {
				break
			}
			x0, x1 := cx-r, cx+r
			y0, y1 := cy-r, cy+r
			for iy := y0; iy <= y1; iy++ {
				if iy < 0 || iy >= gi.ny {
					continue
				}
				// Interior rows of a ring only contribute their two edge
				// cells; stepping by the row width skips the middle.
				step := 1
				if iy != y0 && iy != y1 && x1 > x0 {
					step = x1 - x0
				}
				for ix := x0; ix <= x1; ix += step {
					if ix < 0 || ix >= gi.nx {
						continue
					}
					c := iy*gi.nx + ix
					for _, u32 := range gi.items[gi.start[c]:gi.start[c+1]] {
						u := int(u32)
						if u == v {
							continue
						}
						d := math.Hypot(gi.xs[u]-x, gi.ys[u]-y)
						if cnt == k {
							worst := ds[k-1]
							if d > worst || (d == worst && u32 > ids[k-1]) { //lint:allow floateq (distance, id) tie-break must mirror the Dense build exactly
								continue
							}
						}
						// Insertion point by (distance, id), matching the
						// Dense build's ordering bit-for-bit.
						lo, hi := 0, cnt
						for lo < hi {
							mid := (lo + hi) / 2
							if ds[mid] < d || (ds[mid] == d && ids[mid] < u32) { //lint:allow floateq (distance, id) tie-break must mirror the Dense build exactly
								lo = mid + 1
							} else {
								hi = mid
							}
						}
						if cnt < k {
							cnt++
						}
						copy(ds[lo+1:cnt], ds[lo:cnt-1])
						copy(ids[lo+1:cnt], ids[lo:cnt-1])
						ds[lo] = d
						ids[lo] = u32
					}
				}
			}
		}
	}
}

// NearestExcluding returns the member nearest to member v whose comp
// label differs from comp[v], among candidates strictly closer than
// bound — pass math.Inf(1) for an unbounded query. Ties on distance go
// to the smallest local id. It returns (-1, +Inf) when no member
// qualifies. comp must have one entry per member.
//
// The bound is a pruning contract, not just a filter: candidates at
// distance ≥ bound can be skipped entirely, which lets the Borůvka
// caller pass the weight a candidate must beat and stop ring expansion
// as soon as the geometry proves no such candidate exists.
//
// lb is the caller's lower bound on the answer's distance — pass 0 for
// none. It promises that every member strictly closer than lb shares
// v's label, so rings whose farthest point is strictly closer than lb
// are skipped unscanned; an lb above the true distance breaks
// exactness.
func (gi *GridIndex) NearestExcluding(v int, comp []int32, bound, lb float64) (int, float64) {
	cv := comp[v]
	x, y := gi.xs[v], gi.ys[v]
	cx, cy := gi.cellOf(v)
	best := -1
	bd := bound
	maxRing := gi.maxRing()
	for r := 0; r <= maxRing; r++ {
		if gi.ringLB(r) > bd {
			break
		}
		if gi.ringUB(r) < lb {
			continue
		}
		x0, x1 := cx-r, cx+r
		y0, y1 := cy-r, cy+r
		for iy := y0; iy <= y1; iy++ {
			if iy < 0 || iy >= gi.ny {
				continue
			}
			step := 1
			if iy != y0 && iy != y1 && x1 > x0 {
				step = x1 - x0
			}
			for ix := x0; ix <= x1; ix += step {
				if ix < 0 || ix >= gi.nx {
					continue
				}
				c := iy*gi.nx + ix
				for _, u32 := range gi.items[gi.start[c]:gi.start[c+1]] {
					u := int(u32)
					if u == v || comp[u] == cv {
						continue
					}
					d := math.Hypot(gi.xs[u]-x, gi.ys[u]-y)
					if d < bd || (d == bd && best != -1 && u < best) { //lint:allow floateq equal-distance smaller-id tie-break, deterministic by design
						best, bd = u, d
					}
				}
			}
		}
	}
	if best == -1 {
		return -1, math.Inf(1)
	}
	return best, bd
}

// NearestTo returns the member nearest to the arbitrary point (x, y)
// among members accepted by ok, with ties on distance going to the
// smallest local id. It is the point-query twin of NearestExcluding:
// the same ring expansion around the point's (clamped) cell, the same
// conservative ring lower bound, so the scan is exact even for points
// outside the indexed bounding box (such points clamp to a border cell
// and the Chebyshev ring bound remains valid: any member in ring r of
// the clamped cell is still at least (r-1)·cell from the query point,
// because clamping only moves the query cell closer to the members).
// It returns (-1, +Inf) when no member qualifies.
//
// The predicate makes this the insertion-point kernel of the delta
// patcher (internal/delta): a joining sensor queries for the nearest
// *live* member of a class prefix, skipping departed sensors and
// depot vertices without rebuilding the index.
func (gi *GridIndex) NearestTo(x, y float64, ok func(int) bool) (int, float64) {
	cx := clampCell(int((x-gi.minX)/gi.cell), gi.nx)
	cy := clampCell(int((y-gi.minY)/gi.cell), gi.ny)
	best := -1
	bd := math.Inf(1)
	maxRing := gi.maxRing()
	for r := 0; r <= maxRing; r++ {
		if gi.ringLB(r) > bd {
			break
		}
		x0, x1 := cx-r, cx+r
		y0, y1 := cy-r, cy+r
		for iy := y0; iy <= y1; iy++ {
			if iy < 0 || iy >= gi.ny {
				continue
			}
			step := 1
			if iy != y0 && iy != y1 && x1 > x0 {
				step = x1 - x0
			}
			for ix := x0; ix <= x1; ix += step {
				if ix < 0 || ix >= gi.nx {
					continue
				}
				c := iy*gi.nx + ix
				for _, u32 := range gi.items[gi.start[c]:gi.start[c+1]] {
					u := int(u32)
					if ok != nil && !ok(u) {
						continue
					}
					d := math.Hypot(gi.xs[u]-x, gi.ys[u]-y)
					if d < bd || (d == bd && best != -1 && u < best) { //lint:allow floateq equal-distance smaller-id tie-break, deterministic by design
						best, bd = u, d
					}
				}
			}
		}
	}
	if best == -1 {
		return -1, math.Inf(1)
	}
	return best, bd
}
