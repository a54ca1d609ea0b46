package workloads

import (
	"fmt"

	"gputlb/internal/arch"
	"gputlb/internal/graph"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// The Pannotia/Rodinia graph kernels share one execution shape: each thread
// owns a node, reads its CSR adjacency range, and gathers per-neighbour
// state from node-indexed arrays. Because the 32 lanes of a warp chase
// different adjacency lists, one memory instruction can touch many distinct
// pages — the irregular access pattern behind the low L1 TLB hit rates the
// paper measures — while id-locality in the citation graph keeps most of a
// TB's footprint in nearby pages (high intra-TB reuse, Observation 1) and
// only the hub pages shared across TBs (little inter-TB reuse).

// gatherArray is one node-indexed array read per neighbour.
type gatherArray struct {
	name     string
	elemSize int
}

// graphShape parameterizes one CSR kernel.
type graphShape struct {
	name        string
	nodes       int
	degree      int
	locality    float64
	window      int
	maxSteps    int // cap on modelled SIMD neighbour iterations per warp
	compute     int
	perNeighbor []gatherArray
	frontier    bool // bfs: only the densest BFS level's nodes are active
}

func buildGraphKernel(p Params, sh graphShape) (*trace.Kernel, *vm.AddressSpace) {
	n := roundUp(scaled(sh.nodes, p.Scale, 2048), 256)
	g := graph.GenerateWithLocality(n, sh.degree, sh.locality, sh.window, p.Seed)
	return buildGraphKernelOn(p, sh, g)
}

// buildGraphKernelOn constructs the kernel over a caller-provided graph
// (padded so the node count is a whole number of 256-thread TBs).
func buildGraphKernelOn(p Params, sh graphShape, g *graph.CSR) (*trace.Kernel, *vm.AddressSpace) {
	// TBs cover whole 256-node chunks; the arrays span the full graph
	// because gathered neighbours may point past the last whole chunk.
	n := g.NumNodes / 256 * 256
	if n == 0 {
		panic("workloads: graph too small for one 256-thread TB")
	}

	as := newSpace(p)
	rowptr := mustAlloc(as, "rowptr", uint64(g.NumNodes+1)*4)
	colidx := mustAlloc(as, "colidx", uint64(g.NumEdges())*4)
	arrays := make([]vm.Region, len(sh.perNeighbor))
	for i, ga := range sh.perNeighbor {
		arrays[i] = mustAlloc(as, ga.name, uint64(g.NumNodes)*uint64(ga.elemSize))
	}
	out := mustAlloc(as, "out", uint64(g.NumNodes)*4)

	var active []bool
	if sh.frontier {
		active = densestLevel(g)
	}

	k := &trace.Kernel{Name: sh.name, ThreadsPerTB: 256}
	k.TBs = buildTBs(n/256, func(a *arena, tb int) trace.TBTrace {
		warps := make([]trace.WarpTrace, 8)
		for w := range warps {
			wbase := tb*256 + w*32
			// Read the adjacency bounds and the node's own state.
			a.add(a.warpRead(rowptr, wbase, 4))
			if len(arrays) > 0 {
				a.add(a.warpRead(arrays[0], wbase, sh.perNeighbor[0].elemSize))
			}
			// SIMD neighbour loop: the warp iterates to the largest active
			// lane degree (capped); lanes exhaust as their lists end.
			steps := 0
			for l := 0; l < arch.WarpSize; l++ {
				v := wbase + l
				if active != nil && !active[v] {
					continue
				}
				if d := g.Degree(v); d > steps {
					steps = d
				}
			}
			if steps > sh.maxSteps {
				steps = sh.maxSteps
			}
			// The gather buffers are reused across steps; each step's
			// lanes are copied out by warpGather.
			var colBuf, nbrBuf [arch.WarpSize]int32
			for s := 0; s < steps; s++ {
				colPos, nbr := colBuf[:0], nbrBuf[:0]
				for l := 0; l < arch.WarpSize; l++ {
					v := wbase + l
					if active != nil && !active[v] {
						continue
					}
					if s >= g.Degree(v) {
						continue
					}
					e := g.RowPtr[v] + int32(s)
					colPos = append(colPos, e)
					nbr = append(nbr, g.ColIdx[e])
				}
				if len(colPos) == 0 {
					break
				}
				a.add(a.warpGather(colidx, colPos, 4))
				for i, arr := range arrays {
					a.add(a.warpGather(arr, nbr, sh.perNeighbor[i].elemSize))
				}
				a.add(compute(sh.compute))
			}
			a.add(a.warpRead(out, wbase, 4))
			warps[w] = a.warp()
		}
		return trace.TBTrace{Warps: warps}
	})
	return k, as
}

// densestLevel marks the nodes of the most-populated BFS level — the
// mid-execution frontier where bfs spends its time. A tie goes to the
// lowest level.
func densestLevel(g *graph.CSR) []bool {
	levels := g.BFSLevels(0)
	counts := make([]int, len(levels)) // a level is below the node count
	for _, l := range levels {
		if l >= 0 {
			counts[l]++
		}
	}
	best, bestN := int32(0), 0
	for l, c := range counts {
		if c > bestN {
			best, bestN = int32(l), c
		}
	}
	active := make([]bool, len(levels))
	for v, l := range levels {
		active[v] = l == best
	}
	return active
}

// BuildBFS models Rodinia bfs on the citation graph: frontier nodes expand
// their adjacency lists and gather the level of each neighbour.
func BuildBFS(p Params) (*trace.Kernel, *vm.AddressSpace) {
	return buildGraphKernel(p, graphShape{
		name: "bfs", nodes: 147456, degree: 5, locality: 0.9, window: 4096,
		maxSteps: 24, compute: 6, frontier: true,
		perNeighbor: []gatherArray{{"mask", 4}, {"visited", 4}, {"cost", 4}},
	})
}

// BuildColor models Pannotia graph coloring: every node gathers its
// neighbours' colors to find the minimum available color.
func BuildColor(p Params) (*trace.Kernel, *vm.AddressSpace) {
	return buildGraphKernel(p, graphShape{
		name: "color", nodes: 262144, degree: 4, locality: 0.9, window: 8192,
		maxSteps: 16, compute: 8,
		perNeighbor: []gatherArray{{"colors", 4}, {"value", 4}},
	})
}

// BuildMIS models Pannotia maximal independent set: nodes gather neighbour
// status and priority values to decide membership.
func BuildMIS(p Params) (*trace.Kernel, *vm.AddressSpace) {
	return buildGraphKernel(p, graphShape{
		name: "mis", nodes: 98304, degree: 5, locality: 0.9, window: 4096,
		maxSteps: 20, compute: 16,
		perNeighbor: []gatherArray{{"status", 4}, {"prio", 8}},
	})
}

// BuildPageRank models Pannotia pagerank: every node gathers the rank and
// out-degree of each neighbour to accumulate its new rank.
func BuildPageRank(p Params) (*trace.Kernel, *vm.AddressSpace) {
	return buildGraphKernel(p, graphShape{
		name: "pagerank", nodes: 98304, degree: 6, locality: 0.88, window: 4096,
		maxSteps: 24, compute: 14,
		perNeighbor: []gatherArray{{"rank", 8}, {"outdeg", 4}},
	})
}

// graphShapeByName returns the kernel shape for one of the graph
// benchmarks, without the synthetic-graph sizing fields.
func graphShapeByName(name string) (graphShape, bool) {
	switch name {
	case "bfs":
		return graphShape{name: "bfs", maxSteps: 24, compute: 6, frontier: true,
			perNeighbor: []gatherArray{{"mask", 4}, {"visited", 4}, {"cost", 4}}}, true
	case "color":
		return graphShape{name: "color", maxSteps: 16, compute: 8,
			perNeighbor: []gatherArray{{"colors", 4}, {"value", 4}}}, true
	case "mis":
		return graphShape{name: "mis", maxSteps: 20, compute: 16,
			perNeighbor: []gatherArray{{"status", 4}, {"prio", 8}}}, true
	case "pagerank":
		return graphShape{name: "pagerank", maxSteps: 24, compute: 14,
			perNeighbor: []gatherArray{{"rank", 8}, {"outdeg", 4}}}, true
	}
	return graphShape{}, false
}

// BuildOnGraph constructs one of the graph benchmarks (bfs, color, mis,
// pagerank) over a caller-provided CSR graph — e.g. the real
// coPapersCiteseer citation graph loaded from its DIMACS file — instead of
// the synthetic citation graph.
func BuildOnGraph(name string, g *graph.CSR, p Params) (*trace.Kernel, *vm.AddressSpace, error) {
	sh, ok := graphShapeByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("workloads: %q is not a graph benchmark", name)
	}
	k, as := buildGraphKernelOn(p, sh, g)
	return k, as, nil
}
