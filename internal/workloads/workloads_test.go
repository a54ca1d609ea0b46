package workloads

import (
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/graph"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

func testParams() Params {
	return Params{PageShift: 12, Seed: 1, Scale: 0.25}
}

func TestRegistryHasPaperBenchmarks(t *testing.T) {
	specs := All()
	if len(specs) != 10 {
		t.Fatalf("registry has %d benchmarks, want 10", len(specs))
	}
	want := []string{"bfs", "color", "mis", "nw", "pagerank", "3dconv", "atax", "bicg", "gemm", "mvt"}
	for i, name := range want {
		if specs[i].Name != name {
			t.Errorf("specs[%d] = %q, want %q (paper Table II order)", i, specs[i].Name, name)
		}
	}
	for _, s := range specs {
		if s.PaperFootprintGB <= 0 {
			t.Errorf("%s: missing paper footprint", s.Name)
		}
		if s.Suite == "" || s.Input == "" {
			t.Errorf("%s: missing suite/input metadata", s.Name)
		}
	}
	if _, ok := ByName("gemm"); !ok {
		t.Error("ByName(gemm) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
	if len(Names()) != 10 {
		t.Error("Names() wrong length")
	}
}

// buildAll builds every benchmark once at test scale.
func buildAll(t *testing.T) map[string]*trace.Kernel {
	t.Helper()
	out := make(map[string]*trace.Kernel)
	for _, s := range All() {
		k, as := s.Build(testParams())
		if k == nil || as == nil {
			t.Fatalf("%s: Build returned nil", s.Name)
		}
		out[s.Name] = k
	}
	return out
}

func TestAllBenchmarksBuild(t *testing.T) {
	cfg := arch.Default()
	for name, k := range buildAll(t) {
		if len(k.TBs) < 4 {
			t.Errorf("%s: only %d TBs; need enough to exercise scheduling", name, len(k.TBs))
		}
		if k.MemInsts() == 0 {
			t.Errorf("%s: no memory instructions", name)
		}
		if k.ThreadsPerTB <= 0 || k.ThreadsPerTB > cfg.MaxThreads {
			t.Errorf("%s: ThreadsPerTB = %d", name, k.ThreadsPerTB)
		}
		n := k.ConcurrentTBsPerSM(cfg)
		if n < 1 || n > cfg.MaxTBsPerSM {
			t.Errorf("%s: %d concurrent TBs per SM", name, n)
		}
		for _, tb := range k.TBs {
			if len(tb.Warps) != k.WarpsPerTB() {
				t.Errorf("%s TB %d: %d warps, want %d", name, tb.ID, len(tb.Warps), k.WarpsPerTB())
			}
		}
	}
}

func TestTBIDsAreSequential(t *testing.T) {
	for name, k := range buildAll(t) {
		for i, tb := range k.TBs {
			if tb.ID != i {
				t.Errorf("%s: TBs[%d].ID = %d", name, i, tb.ID)
				break
			}
		}
	}
}

func TestAddressesStayInsideRegions(t *testing.T) {
	for _, s := range All() {
		k, as := s.Build(testParams())
		regions := as.Regions()
		inRegion := func(a vm.Addr) bool {
			for _, r := range regions {
				if r.Contains(a) {
					return true
				}
			}
			return false
		}
		checked := 0
		for _, tb := range k.TBs {
			for _, w := range tb.Warps {
				for _, in := range w.Insts {
					for _, a := range in.Addrs {
						if !inRegion(a) {
							t.Fatalf("%s: address %#x outside every region", s.Name, a)
						}
						checked++
					}
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no addresses generated", s.Name)
		}
	}
}

func TestBuildersDeterministic(t *testing.T) {
	for _, s := range All() {
		k1, _ := s.Build(testParams())
		k2, _ := s.Build(testParams())
		if len(k1.TBs) != len(k2.TBs) {
			t.Fatalf("%s: TB counts differ across identical builds", s.Name)
		}
		for i := range k1.TBs {
			w1, w2 := k1.TBs[i].Warps, k2.TBs[i].Warps
			for wi := range w1 {
				if len(w1[wi].Insts) != len(w2[wi].Insts) {
					t.Fatalf("%s TB %d warp %d: inst counts differ", s.Name, i, wi)
				}
				for ii := range w1[wi].Insts {
					a1, a2 := w1[wi].Insts[ii].Addrs, w2[wi].Insts[ii].Addrs
					if len(a1) != len(a2) {
						t.Fatalf("%s: lane counts differ", s.Name)
					}
					for l := range a1 {
						if a1[l] != a2[l] {
							t.Fatalf("%s: addresses differ across identical builds", s.Name)
						}
					}
				}
			}
		}
	}
}

func TestWorkingSetsExceedL1TLBReach(t *testing.T) {
	// The premise of the paper: at experiment scale, every benchmark's page
	// working set is far beyond the 64-entry L1 TLB.
	for _, s := range All() {
		k, _ := s.Build(DefaultParams())
		if got := UniquePages(k, 12); got < 128 {
			t.Errorf("%s: only %d unique pages; working set must exceed TLB reach", s.Name, got)
		}
	}
}

func TestScaleGrowsFootprint(t *testing.T) {
	small := testParams()
	large := testParams()
	large.Scale = 1.0
	for _, s := range All() {
		_, asS := s.Build(small)
		_, asL := s.Build(large)
		if FootprintBytes(asL) <= FootprintBytes(asS) {
			t.Errorf("%s: footprint did not grow with scale (%d -> %d bytes)",
				s.Name, FootprintBytes(asS), FootprintBytes(asL))
		}
	}
}

func TestGraphKernelsAreIrregular(t *testing.T) {
	// Graph kernels must show imbalance across TBs (the paper's motivation
	// for TLB-aware scheduling): the largest TB should carry well more work
	// than the median.
	for _, name := range []string{"bfs", "color", "mis", "pagerank"} {
		s, _ := ByName(name)
		k, _ := s.Build(DefaultParams())
		sizes := SortedTBSizes(k)
		if len(sizes) < 3 {
			t.Fatalf("%s: too few TBs", name)
		}
		med := sizes[len(sizes)/2]
		if med == 0 || float64(sizes[0]) < 1.1*float64(med) {
			t.Errorf("%s: max TB work %d vs median %d; expected heavy-tail imbalance", name, sizes[0], med)
		}
	}
}

func TestRegularKernelsAreBalanced(t *testing.T) {
	// Dense kernels are near-uniform: gemm exactly, 3dconv up to the
	// boundary z-chunks (which lose one halo plane).
	for _, tc := range []struct {
		name   string
		spread float64
	}{{"gemm", 1.0}, {"3dconv", 1.25}} {
		s, _ := ByName(tc.name)
		k, _ := s.Build(testParams())
		sizes := SortedTBSizes(k)
		if float64(sizes[0]) > tc.spread*float64(sizes[len(sizes)-1]) {
			t.Errorf("%s: TB work ranges %d..%d; dense kernels should be near-uniform",
				tc.name, sizes[len(sizes)-1], sizes[0])
		}
	}
}

func TestNWIsComputeBound(t *testing.T) {
	s, _ := ByName("nw")
	k, _ := s.Build(testParams())
	var computeCycles, memInsts int
	for _, tb := range k.TBs {
		for _, w := range tb.Warps {
			for _, in := range w.Insts {
				if in.IsMem() {
					memInsts++
				} else {
					computeCycles += in.Compute
				}
			}
		}
	}
	if computeCycles < 20*memInsts {
		t.Errorf("nw: %d compute cycles vs %d mem insts; must be compute-bound", computeCycles, memInsts)
	}
}

func TestGemmHasInterTBSharing(t *testing.T) {
	// TBs in the same tile row share A pages; B pages are shared globally.
	s, _ := ByName("gemm")
	k, _ := s.Build(testParams())
	pages := func(tb trace.TBTrace) map[vm.VPN]bool {
		m := make(map[vm.VPN]bool)
		for _, vpn := range trace.TBPageTrace(tb, 12) {
			m[vpn] = true
		}
		return m
	}
	p0, p1 := pages(k.TBs[0]), pages(k.TBs[1])
	shared := 0
	for vpn := range p0 {
		if p1[vpn] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("gemm: adjacent TBs share no pages; paper Observation 2 requires inter-TB reuse")
	}
}

func TestHugePageParamsWork(t *testing.T) {
	p := testParams()
	p.PageShift = 21
	for _, s := range All() {
		k, as := s.Build(p)
		if as.PageShift() != 21 {
			t.Fatalf("%s: address space page shift %d", s.Name, as.PageShift())
		}
		if got := UniquePages(k, 21); got < 1 {
			t.Errorf("%s: no huge pages touched", s.Name)
		}
		if UniquePages(k, 21) >= UniquePages(k, 12) {
			t.Errorf("%s: huge pages did not reduce unique page count", s.Name)
		}
	}
}

func TestBuildOnGraph(t *testing.T) {
	g := graph.Generate(4096, 4, 7)
	p := testParams()
	for _, name := range []string{"bfs", "color", "mis", "pagerank"} {
		k, as, err := BuildOnGraph(name, g, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if as == nil || len(k.TBs) != 4096/256 {
			t.Errorf("%s: %d TBs, want %d", name, len(k.TBs), 4096/256)
		}
		if k.MemInsts() == 0 {
			t.Errorf("%s: empty kernel", name)
		}
	}
	if _, _, err := BuildOnGraph("gemm", g, p); err == nil {
		t.Error("BuildOnGraph accepted a non-graph benchmark")
	}
	// Node counts that are not TB multiples are truncated, not rejected.
	odd := graph.Generate(300, 3, 1)
	k, _, err := BuildOnGraph("color", odd, p)
	if err != nil || len(k.TBs) != 1 {
		t.Errorf("odd-size graph: %v, %d TBs", err, len(k.TBs))
	}
}

func TestMatvecKernelsHaveTwoPhases(t *testing.T) {
	// atax/bicg/mvt are two separate kernel launches in PolyBench: the
	// transposed sweep must be marked as a dependent phase.
	for _, name := range []string{"atax", "bicg", "mvt"} {
		s, _ := ByName(name)
		k, _ := s.Build(testParams())
		if len(k.PhaseStarts) != 1 {
			t.Errorf("%s: %d phase boundaries, want 1", name, len(k.PhaseStarts))
			continue
		}
		b := k.PhaseStarts[0]
		if b <= 0 || b >= len(k.TBs) {
			t.Errorf("%s: phase boundary %d out of range (TBs %d)", name, b, len(k.TBs))
		}
		if err := k.ValidatePhases(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Single-kernel benchmarks have no phase boundaries.
	for _, name := range []string{"gemm", "bfs", "3dconv"} {
		s, _ := ByName(name)
		k, _ := s.Build(testParams())
		if len(k.PhaseStarts) != 0 {
			t.Errorf("%s: unexpected phase boundaries %v", name, k.PhaseStarts)
		}
	}
}

func TestNWFollowsWavefrontOrder(t *testing.T) {
	// nw's TBs must be emitted in anti-diagonal order: the sum of block
	// coordinates (recoverable from the first score access) never
	// decreases.
	s, _ := ByName("nw")
	k, as := s.Build(testParams())
	var score vm.Region
	for _, r := range as.Regions() {
		if r.Name == "score" {
			score = r
		}
	}
	if score.Bytes == 0 {
		t.Fatal("score region missing")
	}
	n := 0
	for 4*n*n < int(score.Bytes) {
		n++
	}
	prevDiag := -1
	for i, tb := range k.TBs {
		var first vm.Addr
		found := false
		for _, in := range tb.Warps[0].Insts {
			if in.IsMem() && score.Contains(in.Addrs[0]) {
				first = in.Addrs[0]
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("TB %d never touches the score matrix", i)
		}
		elem := int(first-score.Base) / 4
		row, col := elem/n, elem%n
		diag := row/32 + col/32
		if diag < prevDiag {
			t.Fatalf("TB %d on diagonal %d after diagonal %d: wavefront order broken", i, diag, prevDiag)
		}
		prevDiag = diag
	}
}

func TestGraphKernelFrontierOnlyInBFS(t *testing.T) {
	// bfs models a frontier (some warps inactive); the other graph kernels
	// process every node. Inactive warps have exactly the 3 structural
	// instructions.
	countTiny := func(name string) int {
		s, _ := ByName(name)
		k, _ := s.Build(testParams())
		tiny := 0
		for _, tb := range k.TBs {
			for _, w := range tb.Warps {
				mem := 0
				for _, in := range w.Insts {
					if in.IsMem() {
						mem++
					}
				}
				if mem <= 3 {
					tiny++
				}
			}
		}
		return tiny
	}
	if got := countTiny("bfs"); got == 0 {
		t.Error("bfs has no inactive frontier warps")
	}
	if got := countTiny("pagerank"); got != 0 {
		t.Errorf("pagerank has %d inactive warps; it processes every node", got)
	}
}
