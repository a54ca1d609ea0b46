package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// CSR is a graph in compressed sparse row form. Edges are undirected and
// stored in both directions, as in the DIMACS format.
type CSR struct {
	NumNodes int
	RowPtr   []int32 // len NumNodes+1
	ColIdx   []int32 // len NumEdges (directed edge count)
}

// NumEdges returns the directed edge count (twice the undirected count).
func (g *CSR) NumEdges() int { return len(g.ColIdx) }

// Degree returns the out-degree of node v.
func (g *CSR) Degree(v int) int { return int(g.RowPtr[v+1] - g.RowPtr[v]) }

// Neighbors returns the adjacency slice of node v (shared storage; callers
// must not mutate it).
func (g *CSR) Neighbors(v int) []int32 { return g.ColIdx[g.RowPtr[v]:g.RowPtr[v+1]] }

// Validate checks CSR structural invariants.
func (g *CSR) Validate() error {
	if len(g.RowPtr) != g.NumNodes+1 {
		return fmt.Errorf("graph: RowPtr length %d, want %d", len(g.RowPtr), g.NumNodes+1)
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("graph: RowPtr[0] = %d, want 0", g.RowPtr[0])
	}
	for i := 0; i < g.NumNodes; i++ {
		if g.RowPtr[i+1] < g.RowPtr[i] {
			return fmt.Errorf("graph: RowPtr not monotone at %d", i)
		}
	}
	if int(g.RowPtr[g.NumNodes]) != len(g.ColIdx) {
		return fmt.Errorf("graph: RowPtr end %d, want %d", g.RowPtr[g.NumNodes], len(g.ColIdx))
	}
	for _, c := range g.ColIdx {
		if c < 0 || int(c) >= g.NumNodes {
			return fmt.Errorf("graph: neighbour %d out of range", c)
		}
	}
	return nil
}

// Generate builds a preferential-attachment graph with numNodes nodes and
// about edgesPerNode undirected edges added per node. Deterministic in seed.
func Generate(numNodes, edgesPerNode int, seed int64) *CSR {
	return GenerateWithLocality(numNodes, edgesPerNode, 0, 0, seed)
}

// GenerateWithLocality is Generate with an id-locality mix: each new edge
// attaches, with probability locality, to a node within `window` ids below
// the new node (uniform), and otherwise preferentially by degree across the
// whole graph. Citation graphs show exactly this structure — papers mostly
// cite recent, related work plus a heavy-tailed set of famous papers — and
// the sliding window keeps each thread block's neighbour footprint in its
// own nearby pages, so TB footprints are mostly disjoint (the paper's
// Observation 1) while hub pages stay globally shared.
func GenerateWithLocality(numNodes, edgesPerNode int, locality float64, window int, seed int64) *CSR {
	if numNodes < 2 {
		panic("graph: need at least 2 nodes")
	}
	if edgesPerNode < 1 {
		edgesPerNode = 1
	}
	rng := rand.New(rand.NewSource(seed))

	// endpoints holds one entry per half-edge, each edge as a consecutive
	// pair; sampling it uniformly is sampling nodes proportionally to
	// degree (preferential attachment).
	endpoints := make([]int32, 0, 2*numNodes*edgesPerNode)
	endpoints = append(endpoints, 0, 1)
	// picked is the current node's distinct targets so far; m is at most
	// edgesPerNode, so a linear scan beats a set.
	picked := make([]int32, 0, edgesPerNode)
	for v := 2; v < numNodes; v++ {
		m := edgesPerNode
		if m > v {
			m = v
		}
		picked = picked[:0]
		for len(picked) < m {
			var u int32
			if locality > 0 && rng.Float64() < locality {
				w := window
				if w <= 0 || w > v {
					w = v
				}
				u = int32(v - 1 - rng.Intn(w))
			} else if pool := hubPool(numNodes); v > pool {
				// Non-local citations go to the early-id hub pool — the
				// handful of famous papers everything cites — sampled
				// degree-proportionally within the pool so the heavy tail
				// stays heavy.
				u = endpoints[rng.Intn(len(endpoints))]
				for try := 0; int(u) >= pool; try++ {
					if try >= 64 {
						u = int32(rng.Intn(pool))
						break
					}
					u = endpoints[rng.Intn(len(endpoints))]
				}
			} else {
				u = endpoints[rng.Intn(len(endpoints))]
			}
			if int(u) == v || slices.Contains(picked, u) {
				// Fall back to a uniform node to guarantee progress on
				// pathological rolls.
				u = int32(rng.Intn(v))
				if int(u) == v || slices.Contains(picked, u) {
					continue
				}
			}
			picked = append(picked, u)
			endpoints = append(endpoints, int32(v), u)
		}
	}
	return csrFromPairs(numNodes, endpoints)
}

// csrFromPairs builds the undirected CSR of the edges listed as
// consecutive pairs in endpoints, by counting sort: degrees, prefix sums,
// then each edge written into both of its rows, each row sorted.
func csrFromPairs(numNodes int, endpoints []int32) *CSR {
	g := &CSR{
		NumNodes: numNodes,
		RowPtr:   make([]int32, numNodes+1),
		ColIdx:   make([]int32, len(endpoints)),
	}
	for _, v := range endpoints {
		g.RowPtr[v+1]++
	}
	for v := 0; v < numNodes; v++ {
		g.RowPtr[v+1] += g.RowPtr[v]
	}
	next := slices.Clone(g.RowPtr[:numNodes])
	for i := 0; i < len(endpoints); i += 2 {
		u, v := endpoints[i], endpoints[i+1]
		g.ColIdx[next[u]] = v
		next[u]++
		g.ColIdx[next[v]] = u
		next[v]++
	}
	for v := 0; v < numNodes; v++ {
		slices.Sort(g.Neighbors(v))
	}
	return g
}

// hubPool is the id bound of the heavy-tailed "famous" nodes non-local
// edges concentrate on.
func hubPool(numNodes int) int {
	p := numNodes / 128
	if p < 64 {
		p = 64
	}
	return p
}

// MaxDegree returns the maximum out-degree, a quick skew indicator.
func (g *CSR) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// BFSLevels runs a breadth-first search from src and returns each node's
// level (-1 if unreachable). Used by workload generators to derive realistic
// frontier schedules and by tests to check connectivity.
func (g *CSR) BFSLevels(src int) []int32 {
	levels := make([]int32, g.NumNodes)
	for i := range levels {
		levels[i] = -1
	}
	levels[src] = 0
	frontier := []int32{int32(src)}
	for depth := int32(1); len(frontier) > 0; depth++ {
		var next []int32
		for _, v := range frontier {
			for _, u := range g.Neighbors(int(v)) {
				if levels[u] == -1 {
					levels[u] = depth
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return levels
}
