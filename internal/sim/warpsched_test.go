package sim

// White-box tests for the warp pick policies: greedy-then-oldest, loose
// round-robin, and the translation reuse-aware scheduler. Each policy is
// driven directly on a hand-built SM state so tie-breaking, empty-SM, and
// all-stalled behaviour are pinned down without running a full simulation.

import (
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/tlb"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// pickFixture builds a simulator shell and one SM sufficient for the pick
// functions: a real L1 TLB (for residency probes) and the 4KB page shift.
func pickFixture(t *testing.T) (*Simulator, *smState) {
	t.Helper()
	cfg := arch.Default()
	sm := &smState{
		id:       0,
		l1tlb:    tlb.New(cfg.L1TLB, tlb.Options{Policy: arch.IndexByAddress}),
		inflight: newInflightTable(arch.Default().TranslationMSHRs),
	}
	sm.l1tlb.ConfigureSlots(4)
	return &Simulator{cfg: cfg, pageShift: 12}, sm
}

// computeWarp returns a ready warp whose next instruction is pure compute.
func computeWarp(sm *smState, seq int64) *warpState {
	return &warpState{sm: sm, seq: seq, insts: []trace.Inst{{Compute: 1}}}
}

// memWarp returns a ready warp whose next instruction loads one page.
func memWarp(sm *smState, seq int64, vpn vm.VPN) *warpState {
	insts := []trace.Inst{{Addrs: []vm.Addr{vm.Addr(vpn) << 12}}}
	k := &trace.Kernel{TBs: []trace.TBTrace{{Warps: []trace.WarpTrace{{Insts: insts}}}}}
	ls, err := k.Lines(7)
	if err != nil {
		panic(err)
	}
	return &warpState{sm: sm, seq: seq, insts: insts, lines: ls.Warp(0, 0)}
}

func seqOf(sm *smState, idx int) int64 {
	if idx < 0 {
		return -1
	}
	return sm.ready[idx].seq
}

func TestPickGTO(t *testing.T) {
	tests := []struct {
		name    string
		seqs    []int64
		last    int // index into seqs made the greedy warp, -1 for none
		wantSeq int64
	}{
		{"empty SM", nil, -1, -1},
		{"single warp", []int64{7}, -1, 7},
		{"oldest wins", []int64{5, 2, 9}, -1, 2},
		{"greedy beats oldest", []int64{5, 2, 9}, 2, 9},
		{"greedy is also oldest", []int64{5, 2, 9}, 1, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, sm := pickFixture(t)
			for _, q := range tt.seqs {
				sm.ready = append(sm.ready, computeWarp(sm, q))
			}
			if tt.last >= 0 {
				sm.last = sm.ready[tt.last]
			}
			if got := seqOf(sm, s.pickGTO(sm)); got != tt.wantSeq {
				t.Errorf("pickGTO chose seq %d, want %d", got, tt.wantSeq)
			}
		})
	}
}

func TestPickLRR(t *testing.T) {
	tests := []struct {
		name    string
		seqs    []int64
		cursor  int64
		wantSeq int64
	}{
		{"empty SM", nil, 0, -1},
		{"smallest above cursor", []int64{3, 1, 2}, 1, 2},
		{"cursor at zero picks above it", []int64{3, 1, 2}, 0, 1},
		{"highest above cursor only", []int64{3, 1, 2}, 2, 3},
		{"wraps to oldest when none above", []int64{3, 1, 2}, 5, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, sm := pickFixture(t)
			for _, q := range tt.seqs {
				sm.ready = append(sm.ready, computeWarp(sm, q))
			}
			sm.rrCursor = tt.cursor
			if got := seqOf(sm, s.pickLRR(sm)); got != tt.wantSeq {
				t.Errorf("pickLRR chose seq %d, want %d", got, tt.wantSeq)
			}
		})
	}
}

func TestPickTransAwarePrefersResident(t *testing.T) {
	s, sm := pickFixture(t)
	// Older warp needs a fresh translation; younger compute warp does not.
	sm.ready = []*warpState{memWarp(sm, 1, 100), computeWarp(sm, 2)}
	if got := seqOf(sm, s.pickTransAware(sm)); got != 2 {
		t.Errorf("chose seq %d, want the translation-free warp (2)", got)
	}
	// Once the page is TLB-resident, the older mem warp wins again.
	sm.l1tlb.Insert(0, 100, 1)
	if got := seqOf(sm, s.pickTransAware(sm)); got != 1 {
		t.Errorf("chose seq %d, want the resident mem warp (1)", got)
	}
}

func TestPickTransAwareGreedyShortCircuit(t *testing.T) {
	s, sm := pickFixture(t)
	sm.ready = []*warpState{computeWarp(sm, 1), computeWarp(sm, 5)}
	sm.last = sm.ready[1]
	// Both are translation-free; the greedy (last-issued) warp wins over the
	// older one, mirroring GTO.
	if got := seqOf(sm, s.pickTransAware(sm)); got != 5 {
		t.Errorf("chose seq %d, want the greedy warp (5)", got)
	}
}

func TestPickTransAwareAllStalledFallsBackToGTO(t *testing.T) {
	s, sm := pickFixture(t)
	// Every ready warp needs a new translation: no warp qualifies, so the
	// policy must degrade to plain greedy-then-oldest.
	sm.ready = []*warpState{memWarp(sm, 4, 100), memWarp(sm, 2, 101), memWarp(sm, 3, 102)}
	if got := seqOf(sm, s.pickTransAware(sm)); got != 2 {
		t.Errorf("chose seq %d, want GTO's oldest (2)", got)
	}
	if got := seqOf(sm, s.pickTransAware(sm)); got != 2 {
		t.Errorf("pick is not stable: chose seq %d on repeat", got)
	}
}

func TestPickTransAwareEmptySM(t *testing.T) {
	s, sm := pickFixture(t)
	if got := s.pickTransAware(sm); got != -1 {
		t.Errorf("pickTransAware on empty SM = %d, want -1", got)
	}
}

func TestPickTransAwareProbeBound(t *testing.T) {
	s, sm := pickFixture(t)
	// Nine non-resident mem warps ahead of a resident one: the bounded probe
	// budget (8) runs out before the resident warp is examined, so the
	// scheduler falls back to GTO's oldest instead of scanning the whole pool.
	for i := 0; i < 9; i++ {
		sm.ready = append(sm.ready, memWarp(sm, int64(i+10), vm.VPN(200+i)))
	}
	sm.l1tlb.Insert(0, 300, 1)
	sm.ready = append(sm.ready, memWarp(sm, 1, 300)) // oldest AND resident, but beyond probes
	if got := seqOf(sm, s.pickTransAware(sm)); got != 1 {
		// GTO's oldest is seq 1 here too, so the fallback still lands on it.
		t.Errorf("chose seq %d, want GTO fallback (1)", got)
	}
	// With the resident warp inside the probe window it is chosen directly.
	sm.ready = []*warpState{memWarp(sm, 9, 400), memWarp(sm, 3, 300)}
	if got := seqOf(sm, s.pickTransAware(sm)); got != 3 {
		t.Errorf("chose seq %d, want the resident warp (3)", got)
	}
}
