package trace

// Allocation regression guards for the coalescer emit path. The simulator
// calls Coalesced.Coalesce (and the trans-aware scheduler CoalescePagesInto)
// once per issued memory instruction with reused buffers; these pin that
// steady state at zero heap allocations so a future change cannot silently
// reintroduce the per-instruction garbage the hot-path overhaul removed.

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
