package rooted

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/metric"
)

// boruvkaParallelGate is the sensor count below which msfBoruvka runs
// each round as one shard on the calling goroutine even when
// Workers > 1: the goroutine handoff costs more than the queries it
// would shard.
const boruvkaParallelGate = 2048

// incumbents is one shard's running minimum offer weight per
// component, held in a direct-mapped table: a component whose slot a
// later component took reads +Inf, which only loosens its bound. The
// rounds where the bound matters most have few components and rarely
// collide, and the table's size grows with neither m nor the worker
// count.
type incumbents struct {
	comp [incSlots]int32
	w    [incSlots]float64
}

// incSlots is the table size of incumbents, a power of two.
const incSlots = 1 << 12

func (t *incumbents) reset() {
	for i := range t.comp {
		t.comp[i] = -1
	}
}

// get returns component c's incumbent weight, or +Inf if none is held.
func (t *incumbents) get(c int32) float64 {
	if i := c & (incSlots - 1); t.comp[i] == c {
		return t.w[i]
	}
	return math.Inf(1)
}

// offer records an offer of weight w by component c.
func (t *incumbents) offer(c int32, w float64) {
	if i := c & (incSlots - 1); t.comp[i] != c || w < t.w[i] {
		t.comp[i], t.w[i] = c, w
	}
}

// msfArena pools every O(m) buffer of one Borůvka MSF computation —
// including the contracted-space inputs its caller (msf) fills and the
// subset grid index — so the K+1 prefix-solution MSF calls of a plan,
// and successive requests through a chargerd worker, reuse one grown
// allocation instead of churning ~70 bytes/sensor/call through the GC.
// Arenas hold memory only (no results), so pooling cannot affect
// determinism; sync.Pool makes reuse safe across the sweep workers.
type msfArena struct {
	gi      metric.GridIndex
	uf      graph.UnionFind
	nearest []int32   // filled by msf: nearest depot per sensor
	toRoot  []float64 // filled by msf: distance to nearest depot
	comp    []int32
	bestW   []float64
	bestV   []int32
	bestU   []int32
	// selected MST edges, as parallel endpoint arrays (8 bytes/edge;
	// orientation never needs the weights, which sum into Tree.Weight)
	eu, ev []int32
	// per-sensor nearest-outside answers carried across rounds, and one
	// incumbents table per shard
	nnU []int32
	nnD []float64
	inc []incumbents
	// tree-orientation buffers; the BFS cursor and queue are not here —
	// they overlay bestV/bestU, which are dead once the rounds finish
	off    []int32
	adj    []int32
	parent []int
	seen   []bool
}

var msfArenaPool = sync.Pool{New: func() any { return new(msfArena) }}

// grow returns s resized to length n, reallocating only when the
// capacity watermark is exceeded. Contents are unspecified; every user
// fully overwrites (or explicitly clears) what it borrows.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// msfBoruvka computes the exact MST of the depot-contracted space —
// vertices 0..m-1 are the sensors, vertex m the super-root at ar.toRoot
// distances — without a distance matrix, using Borůvka rounds over a
// grid index of the sensor coordinates. It is the sub-quadratic twin of
// primContractedDense, selected by msf when the space is a metric.Grid.
// ar carries the pooled buffers and the toRoot array its caller filled;
// the returned Tree's Parent aliases the arena, so the caller must be
// done with it before releasing ar.
//
// Each round finds, for every component, its (weight, v, u)-
// lexicographically minimum outgoing edge, merges the chosen edges
// through a union-find and skips edges an earlier merge of the round
// already connected (equal-weight cycles, weight-neutral to skip).
// Components at least halve every round, so there are O(log m) rounds.
// Sensor–sensor candidates come from GridIndex.NearestExcluding, super-
// root candidates from toRoot, credited to both endpoint components.
//
// The result is the lexicographic minimum over all offers, so a
// sensor's query may prune any candidate that provably loses to an
// offer already known — and the rules below prune as tightly as that
// order allows while every sensor's answer stays exact or provably
// losing:
//
//   - Root offers first. Every super-root edge is offered before any
//     sensor query, so bestW[c] holds component c's best root edge. A
//     candidate of sensor v at distance d beats it iff d < bestW[c], or
//     d == bestW[c] and v ≤ bestV[c] (u < m breaks v's own tie). So v
//     queries under bestW[c] when the incumbent's sensor is smaller,
//     and one ulp above it otherwise.
//   - One incumbent per shard. Sensors are sharded into ascending index
//     ranges; each shard keeps its own running minimum of the offers it
//     made, per component (an incumbents table). Those offers all come
//     from smaller indices, so v may also prune at d ≥ that minimum. One shard is the serial
//     case; more shards prune less but never change an answer that can
//     win. Shard s > 0 runs on its own goroutine; below
//     boruvkaParallelGate sensors there is only shard 0.
//   - Answers carried across rounds. Components only grow, so a
//     sensor's nearest-outside distance never decreases. nnU/nnD keep
//     each sensor's last answer: while that neighbor is still outside,
//     it is still the exact (distance, id)-minimum and needs no query.
//     Otherwise nnD is a lower bound lb (the old distance, or the bound
//     a query came back empty under): the sensor is skipped when
//     lb ≥ its bound, and its query skips rings closer than lb.
//
// The merge then offers every exact answer in a serial pass, so the
// round's edges are the same whatever was pruned, and the forest is
// byte-identical for every worker count.
func msfBoruvka(g *metric.Grid, sensors []int, ar *msfArena, workers int) graph.Tree {
	m := len(sensors)
	g.SubIndexInto(&ar.gi, sensors)
	gi := &ar.gi
	toRoot := ar.toRoot
	ar.uf.Reset(m + 1)
	uf := &ar.uf

	comp := grow(ar.comp, m)
	bestW := grow(ar.bestW, m+1)
	bestV := grow(ar.bestV, m+1)
	bestU := grow(ar.bestU, m+1)
	eu, ev := ar.eu[:0], ar.ev[:0]
	var weight float64

	shards := 1
	if workers > 1 && m >= boruvkaParallelGate {
		shards = workers
	}
	chunk := (m + shards - 1) / shards
	nnU := grow(ar.nnU, m)
	nnD := grow(ar.nnD, m)
	for v := range nnU {
		nnU[v], nnD[v] = -1, 0
	}
	inc := grow(ar.inc, shards)

	// offer proposes edge (v, u) of weight w as component c's outgoing
	// edge, keeping the (weight, v, u)-lexicographic minimum.
	offer := func(c int32, w float64, v, u int32) {
		i := int(c)
		if w < bestW[i] ||
			(w == bestW[i] && (v < bestV[i] || (v == bestV[i] && u < bestU[i]))) { //lint:allow floateq lexicographic (weight, v, u) edge tie-break, deterministic by design
			bestW[i], bestV[i], bestU[i] = w, v, u
		}
	}
	// query refreshes the answers of sensors lo..hi-1 under shard
	// incumbents inc. It reads only round-fixed state (comp, bestW,
	// bestV) besides its own sensors' slots, so shards run concurrently.
	query := func(lo, hi int, inc *incumbents) {
		inc.reset()
		for v := lo; v < hi; v++ {
			c := comp[v]
			if u := nnU[v]; u >= 0 {
				if comp[u] != c {
					inc.offer(c, nnD[v])
					continue
				}
				nnU[v] = -1 // merged away: nnD[v] is now a lower bound
			}
			b := bestW[c]
			if int(bestV[c]) >= v {
				b = math.Nextafter(b, math.Inf(1))
			}
			if w := inc.get(c); w < b {
				b = w
			}
			if nnD[v] >= b {
				continue
			}
			u, d := gi.NearestExcluding(v, comp, b, nnD[v])
			if u < 0 {
				nnD[v] = b // nothing strictly closer than b lies outside
				continue
			}
			nnU[v], nnD[v] = int32(u), d
			inc.offer(c, d)
		}
	}

	for uf.Sets() > 1 {
		for v := 0; v < m; v++ {
			comp[v] = int32(uf.Find(v))
		}
		rootComp := int32(uf.Find(m))
		for c := 0; c <= m; c++ {
			bestW[c] = math.Inf(1)
		}
		// Sensors in the super-root's component make no root offer: that
		// edge is internal there.
		for v := 0; v < m; v++ {
			if c := comp[v]; c != rootComp {
				w := toRoot[v]
				offer(c, w, int32(v), int32(m))
				offer(rootComp, w, int32(v), int32(m))
			}
		}
		var wg sync.WaitGroup
		for s := 1; s < shards && s*chunk < m; s++ {
			lo, hi := s*chunk, min((s+1)*chunk, m)
			wg.Add(1)
			go func(lo, hi int, inc *incumbents) {
				defer wg.Done()
				query(lo, hi, inc)
			}(lo, hi, &inc[s])
		}
		query(0, min(chunk, m), &inc[0])
		wg.Wait()
		for v := 0; v < m; v++ {
			if u := nnU[v]; u >= 0 {
				offer(comp[v], nnD[v], int32(v), u)
			}
		}
		progress := false
		for c := 0; c <= m; c++ {
			if math.IsInf(bestW[c], 1) {
				continue
			}
			if uf.Union(int(bestV[c]), int(bestU[c])) {
				eu = append(eu, bestU[c])
				ev = append(ev, bestV[c])
				weight += bestW[c]
				progress = true
			}
		}
		if !progress {
			// A complete geometric graph always offers every component an
			// outgoing edge; reaching here means the index is broken.
			panic("rooted: Borůvka round made no progress")
		}
	}
	ar.eu, ar.ev = eu, ev
	if len(eu) != m {
		panic(fmt.Sprintf("rooted: Borůvka selected %d edges for %d sensors", len(eu), m))
	}

	// Orient the undirected tree away from the super-root with one BFS;
	// the parent array of a tree is unique, so traversal order does not
	// matter beyond determinism of the walk itself.
	off := grow(ar.off, m+2)
	for i := range off {
		off[i] = 0
	}
	for i := range eu {
		off[eu[i]+1]++
		off[ev[i]+1]++
	}
	for v := 0; v < m+1; v++ {
		off[v+1] += off[v]
	}
	adj := grow(ar.adj, 2*len(eu))
	// bestV/bestU (m+1 int32 each) are dead after the last union pass;
	// reuse them as the fill cursor and BFS queue instead of dedicating
	// two more arrays to the orientation.
	cur := bestV[:m+1]
	copy(cur, off[:m+1])
	for i := range eu {
		adj[cur[eu[i]]] = ev[i]
		cur[eu[i]]++
		adj[cur[ev[i]]] = eu[i]
		cur[ev[i]]++
	}
	parent := grow(ar.parent, m+1)
	seen := grow(ar.seen, m+1)
	for v := range parent {
		parent[v] = -1
		seen[v] = false
	}
	queue := bestU[:0]
	queue = append(queue, int32(m))
	seen[m] = true
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		for _, u := range adj[off[v]:off[v+1]] {
			if !seen[u] {
				seen[u] = true
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	for v := 0; v < m; v++ {
		if !seen[v] {
			panic(fmt.Sprintf("rooted: Borůvka tree does not span sensor %d", v))
		}
	}
	ar.comp, ar.bestW, ar.bestV, ar.bestU = comp, bestW, bestV, bestU
	ar.nnU, ar.nnD, ar.inc = nnU, nnD, inc
	ar.off, ar.adj, ar.parent, ar.seen = off, adj, parent, seen
	return graph.Tree{Parent: parent, Weight: weight}
}
