package sim

// Allocation regression guards: the per-issue scheduler path (the warp
// pick policies run once per SM tick and must not allocate once the
// simulator's scratch buffers are warm), its building blocks, and whole
// runs of the golden-suite benchmarks on each engine.

import (
	"runtime"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/engine"
	"gputlb/internal/vm"
	"gputlb/internal/workloads"
)

// Bounds on heap allocations per issued warp instruction over Run for the
// golden-suite benchmarks. The per-instruction paths allocate nothing, so
// what a run allocates is per-run and per-TB setup. The serial loop
// measures 0.0820; the sharded engine with four address slices measures
// 0.1807, its shard and slice construction included (Run builds them), and
// must stay well under one allocation per instruction.
const (
	maxAllocsPerInstSerial = 0.10
	maxAllocsPerInstSliced = 0.22
)

// TestAllocsPerInst counts every heap allocation made while the
// golden-suite benchmarks (one per workload family) run, and divides by the
// warp instructions they issue. The count is process-wide, so the test must
// not run in parallel with others.
func TestAllocsPerInst(t *testing.T) {
	params := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2}
	for _, tt := range []struct {
		name      string
		setEngine func(*Simulator)
		bound     float64
	}{
		{"serial", func(*Simulator) {}, maxAllocsPerInstSerial},
		{"sliced", func(s *Simulator) { s.SetCellParallel(2); s.SetL2Slices(4) }, maxAllocsPerInstSliced},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var sims []*Simulator
			for _, name := range []string{"bfs", "pagerank", "atax", "3dconv", "nw"} {
				spec, ok := workloads.ByName(name)
				if !ok {
					t.Fatalf("unknown benchmark %q", name)
				}
				k, as := workloads.Cached(spec, params)
				s, err := New(arch.Default(), k, as)
				if err != nil {
					t.Fatal(err)
				}
				tt.setEngine(s)
				sims = append(sims, s)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			var insts int64
			for _, s := range sims {
				insts += s.Run().InstsIssued
			}
			runtime.ReadMemStats(&after)
			got := float64(after.Mallocs-before.Mallocs) / float64(insts)
			t.Logf("%.4f allocs/inst over %d insts", got, insts)
			if got > tt.bound {
				t.Errorf("%s engine allocates %.4f times per issued instruction, want <= %.2f: "+
					"something on the per-instruction path allocates", tt.name, got, tt.bound)
			}
		})
	}
}

// allocFixture is pickFixture plus the scratch buffers New() normally
// provides, since pickTransAware leans on them for its ordering and
// residency probes.
func allocFixture(t *testing.T) (*Simulator, *smState) {
	t.Helper()
	s, sm := pickFixture(t)
	sm.pickCoal = newCoalesced()
	sm.orderBuf = make([]int, 0, arch.WarpSize)
	return s, sm
}

func TestPickPoliciesZeroAlloc(t *testing.T) {
	s, sm := allocFixture(t)
	for i := 0; i < 12; i++ {
		if i%3 == 0 {
			sm.ready = append(sm.ready, memWarp(sm, int64(i), vm.VPN(100+i)))
		} else {
			sm.ready = append(sm.ready, computeWarp(sm, int64(i)))
		}
	}
	sm.l1tlb.InsertA(0, 0, 103, 1)
	sm.last = sm.ready[4]

	for _, tt := range []struct {
		name string
		pick func(*smState) int
	}{
		{"GTO", s.pickGTO},
		{"LRR", s.pickLRR},
		{"TransAware", s.pickTransAware},
	} {
		// Warm once so lazily-grown scratch reaches steady state.
		tt.pick(sm)
		allocs := testing.AllocsPerRun(100, func() { tt.pick(sm) })
		if allocs != 0 {
			t.Errorf("pick%s allocated %.1f times per run, want 0", tt.name, allocs)
		}
	}
}

func TestInflightTableZeroAlloc(t *testing.T) {
	tab := newInflightTable(arch.Default().TranslationMSHRs)
	clock := engine.Cycle(0)
	allocs := testing.AllocsPerRun(100, func() {
		clock += 100
		for i := 0; i < 32; i++ {
			vpn := vm.VPN(i * 5)
			tab.put(vpn, vm.PPN(i), clock+10, clock)
			tab.get(vpn)
			tab.get(vpn + 1)
		}
	})
	if allocs != 0 {
		t.Errorf("inflightTable put/get allocated %.1f times per run, want 0", allocs)
	}
}

func TestSchedulePriZeroAllocSteadyState(t *testing.T) {
	var q engine.Queue
	for i := 0; i < 64; i++ {
		q.Schedule(engine.Cycle(i), func() {})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	fn := func() {}
	at := engine.Cycle(1000)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			q.SchedulePri(at+engine.Cycle(i), shardPri(at, schedClsPhase, uint64(i)), fn)
		}
		for q.Len() > 0 {
			q.Pop()
		}
		at += 100
	})
	if allocs != 0 {
		t.Errorf("Queue SchedulePri/Pop allocated %.1f times per run, want 0", allocs)
	}
}

func TestPendingInstPoolZeroAlloc(t *testing.T) {
	sh := &shardCtx{}
	// Warm the pool to steady state: every later get is a reuse.
	warm := make([]*pendingInst, 8)
	for i := range warm {
		warm[i] = sh.getPI()
	}
	for _, pi := range warm {
		sh.putPI(pi)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			pi := sh.getPI()
			pi.pages = append(pi.pages, pendPage{vpn: vm.VPN(i)})
			pi.lines = append(pi.lines, pendLine{start: engine.Cycle(i)})
			sh.putPI(pi)
		}
	})
	if allocs != 0 {
		t.Errorf("pendingInst pool allocated %.1f times per run, want 0", allocs)
	}
}

func TestEngineScheduleZeroAllocSteadyState(t *testing.T) {
	var q engine.Queue
	// Pre-grow the node pool so steady-state schedule/pop cycles reuse capacity.
	for i := 0; i < 64; i++ {
		q.Schedule(engine.Cycle(i), func() {})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	fn := func() {}
	at := engine.Cycle(1000)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			q.Schedule(at+engine.Cycle(i), fn)
		}
		for q.Len() > 0 {
			q.Pop()
		}
		at += 100
	})
	if allocs != 0 {
		t.Errorf("Queue Schedule/Pop allocated %.1f times per run, want 0", allocs)
	}
}
