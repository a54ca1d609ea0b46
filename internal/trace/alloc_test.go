package trace

// Allocation regression guards for the coalescer emit paths. The simulator
// decodes each issued memory instruction (and the trans-aware scheduler
// each probed one) from the line stream with LineCursor.Next into reused
// buffers, the stream builder runs Coalesced.Coalesce once per memory
// instruction, and the trace analyses run the Into coalescers; these pin
// that steady state at zero heap allocations so a future change cannot
// silently reintroduce per-instruction garbage.

import (
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/vm"
)

// warpAddrs builds a full warp of lane addresses spanning several lines and
// two pages, exercising the dedup scan.
func warpAddrs() []vm.Addr {
	addrs := make([]vm.Addr, arch.WarpSize)
	for i := range addrs {
		addrs[i] = vm.Addr(0x1000 + i*64 + (i%2)*4096)
	}
	return addrs
}

func TestCoalesceLinesIntoZeroAlloc(t *testing.T) {
	addrs := warpAddrs()
	buf := make([]vm.Addr, 0, arch.WarpSize)
	allocs := testing.AllocsPerRun(100, func() {
		buf = CoalesceLinesInto(buf, addrs, 128)
	})
	if allocs != 0 {
		t.Errorf("CoalesceLinesInto allocated %.1f times per run, want 0", allocs)
	}
}

func TestCoalescePagesIntoZeroAlloc(t *testing.T) {
	addrs := warpAddrs()
	buf := make([]vm.VPN, 0, arch.WarpSize)
	allocs := testing.AllocsPerRun(100, func() {
		buf = CoalescePagesInto(buf, addrs, 12)
	})
	if allocs != 0 {
		t.Errorf("CoalescePagesInto allocated %.1f times per run, want 0", allocs)
	}
}

func TestCoalescedZeroAlloc(t *testing.T) {
	addrs := warpAddrs()
	c := Coalesced{
		Pages:    make([]vm.VPN, 0, arch.WarpSize),
		Lines:    make([]vm.Addr, 0, arch.WarpSize),
		LinePage: make([]int, 0, arch.WarpSize),
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Coalesce(addrs, 12, 7)
	})
	if allocs != 0 {
		t.Errorf("Coalesced.Coalesce allocated %.1f times per run, want 0", allocs)
	}
}

func TestLineCursorNextZeroAlloc(t *testing.T) {
	insts := make([]Inst, 100)
	for i := range insts {
		insts[i] = Inst{Addrs: warpAddrs()}
	}
	k := &Kernel{TBs: []TBTrace{{Warps: []WarpTrace{{Insts: insts}}}}}
	ls, err := k.Lines(7)
	if err != nil {
		t.Fatal(err)
	}
	c := Coalesced{
		Pages:    make([]vm.VPN, 0, arch.WarpSize),
		Lines:    make([]vm.Addr, 0, arch.WarpSize),
		LinePage: make([]int, 0, arch.WarpSize),
	}
	cur := ls.Warp(0, 0)
	allocs := testing.AllocsPerRun(len(insts)-1, func() {
		cur.Next(&c, 12)
	})
	if allocs != 0 {
		t.Errorf("LineCursor.Next allocated %.1f times per run, want 0", allocs)
	}
}
