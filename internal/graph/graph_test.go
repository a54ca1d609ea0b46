package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestGenerateValidCSR(t *testing.T) {
	g := Generate(1000, 4, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes != 1000 {
		t.Errorf("NumNodes = %d", g.NumNodes)
	}
	// Each added node contributes up to edgesPerNode undirected edges.
	if g.NumEdges() < 2*1000 || g.NumEdges() > 2*4*1000 {
		t.Errorf("NumEdges = %d, outside plausible range", g.NumEdges())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(500, 3, 42)
	b := Generate(500, 3, 42)
	if len(a.ColIdx) != len(b.ColIdx) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
	c := Generate(500, 3, 43)
	same := len(a.ColIdx) == len(c.ColIdx)
	if same {
		for i := range a.ColIdx {
			if a.ColIdx[i] != c.ColIdx[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestSymmetry(t *testing.T) {
	g := Generate(300, 3, 7)
	// Build reverse adjacency and confirm every edge exists both ways.
	type edge struct{ u, v int32 }
	fwd := make(map[edge]int)
	for v := 0; v < g.NumNodes; v++ {
		for _, u := range g.Neighbors(v) {
			fwd[edge{int32(v), u}]++
		}
	}
	for e, n := range fwd {
		if fwd[edge{e.v, e.u}] != n {
			t.Fatalf("edge (%d,%d) multiplicity %d but reverse %d", e.u, e.v, n, fwd[edge{e.v, e.u}])
		}
	}
}

func TestPowerLawSkew(t *testing.T) {
	g := Generate(5000, 4, 1)
	avg := float64(g.NumEdges()) / float64(g.NumNodes)
	if got := g.MaxDegree(); float64(got) < 8*avg {
		t.Errorf("MaxDegree = %d, avg = %.1f; degree distribution not heavy-tailed", got, avg)
	}
}

func TestDegreeSumEqualsEdges(t *testing.T) {
	g := Generate(800, 5, 3)
	sum := 0
	for v := 0; v < g.NumNodes; v++ {
		sum += g.Degree(v)
	}
	if sum != g.NumEdges() {
		t.Errorf("degree sum %d != edge count %d", sum, g.NumEdges())
	}
}

func TestBFSLevels(t *testing.T) {
	g := Generate(1000, 4, 9)
	levels := g.BFSLevels(0)
	if levels[0] != 0 {
		t.Errorf("source level = %d", levels[0])
	}
	// Preferential attachment grows a connected graph: all reachable.
	for v, l := range levels {
		if l < 0 {
			t.Fatalf("node %d unreachable; generator must grow a connected graph", v)
		}
	}
	// Levels differ by at most 1 across any edge.
	for v := 0; v < g.NumNodes; v++ {
		for _, u := range g.Neighbors(v) {
			d := levels[v] - levels[u]
			if d < -1 || d > 1 {
				t.Fatalf("edge (%d,%d) spans levels %d and %d", v, u, levels[v], levels[u])
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := Generate(100, 2, 1)
	cases := map[string]func(*CSR){
		"rowptr-len":   func(g *CSR) { g.RowPtr = g.RowPtr[:len(g.RowPtr)-1] },
		"rowptr-start": func(g *CSR) { g.RowPtr[0] = 1 },
		"rowptr-mono":  func(g *CSR) { g.RowPtr[5] = g.RowPtr[4] - 1 },
		"rowptr-end":   func(g *CSR) { g.RowPtr[g.NumNodes]++ },
		"colidx-range": func(g *CSR) { g.ColIdx[0] = int32(g.NumNodes) },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			g := &CSR{NumNodes: good.NumNodes}
			g.RowPtr = append([]int32(nil), good.RowPtr...)
			g.ColIdx = append([]int32(nil), good.ColIdx...)
			corrupt(g)
			if err := g.Validate(); err == nil {
				t.Error("Validate accepted corrupted CSR")
			}
		})
	}
}

// Property: any generated graph has no self loops and validates.
func TestGenerateProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := 2 + int(nRaw)%400
		m := 1 + int(mRaw)%6
		g := Generate(n, m, seed)
		if g.Validate() != nil {
			return false
		}
		for v := 0; v < g.NumNodes; v++ {
			for _, u := range g.Neighbors(v) {
				if int(u) == v {
					return false // self loop
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// generateReference is the original map-based GenerateWithLocality, kept
// as the oracle the optimized generator must match edge for edge: the
// same RNG call sequence, a per-node seen map, and per-node adjacency
// slices sorted into the CSR.
func generateReference(numNodes, edgesPerNode int, locality float64, window int, seed int64) *CSR {
	if edgesPerNode < 1 {
		edgesPerNode = 1
	}
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int32, numNodes)
	endpoints := make([]int32, 0, 2*numNodes*edgesPerNode)
	addEdge := func(u, v int32) {
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		endpoints = append(endpoints, u, v)
	}
	addEdge(0, 1)
	for v := 2; v < numNodes; v++ {
		m := edgesPerNode
		if m > v {
			m = v
		}
		seen := make(map[int32]bool, m)
		for len(seen) < m {
			var u int32
			if locality > 0 && rng.Float64() < locality {
				w := window
				if w <= 0 || w > v {
					w = v
				}
				u = int32(v - 1 - rng.Intn(w))
			} else if pool := hubPool(numNodes); v > pool {
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
			if int(u) == v || seen[u] {
				u = int32(rng.Intn(v))
				if int(u) == v || seen[u] {
					continue
				}
			}
			seen[u] = true
			addEdge(int32(v), u)
		}
	}
	g := &CSR{NumNodes: numNodes, RowPtr: make([]int32, numNodes+1)}
	for v := range adj {
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
		g.ColIdx = append(g.ColIdx, adj[v]...)
		g.RowPtr[v+1] = int32(len(g.ColIdx))
	}
	return g
}

// Property: GenerateWithLocality builds exactly the reference graph, over
// sizes on both sides of the hub pool, degrees past the node count, and
// localities from none to all.
func TestGenerateMatchesReference(t *testing.T) {
	localities := []float64{0, 0.5, 0.88, 0.9, 1}
	f := func(seed int64, nRaw uint16, mRaw, locRaw, winRaw uint8) bool {
		n := 2 + int(nRaw)%1500
		m := 1 + int(mRaw)%8
		loc := localities[int(locRaw)%len(localities)]
		win := int(winRaw) % 200 // 0 means the whole prefix
		got := GenerateWithLocality(n, m, loc, win, seed)
		want := generateReference(n, m, loc, win, seed)
		return slices.Equal(got.RowPtr, want.RowPtr) && slices.Equal(got.ColIdx, want.ColIdx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
