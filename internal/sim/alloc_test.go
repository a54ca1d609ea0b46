package sim

// Allocation regression guards for the per-issue scheduler path: the warp
// pick policies run once per SM tick and must not allocate once the
// simulator's scratch buffers are warm.

import (
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/engine"
	"gputlb/internal/vm"
)

// allocFixture is pickFixture plus the scratch buffers New() normally
// provides, since pickTransAware leans on them for its ordering and
// residency probes.
func allocFixture(t *testing.T) (*Simulator, *smState) {
	t.Helper()
	s, sm := pickFixture(t)
	sm.pickBuf = make([]vm.VPN, 0, arch.WarpSize)
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
	sm.l1tlb.Insert(0, 103, 1)
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
