package trace

import (
	"testing"
	"testing/quick"

	"gputlb/internal/arch"
	"gputlb/internal/vm"
)

func TestCoalesceLinesMergesWithinLine(t *testing.T) {
	// 32 consecutive 4-byte words span one 128B line.
	addrs := make([]vm.Addr, 32)
	for i := range addrs {
		addrs[i] = vm.Addr(0x1000 + 4*i)
	}
	lines := CoalesceLinesInto(nil, addrs, 128)
	if len(lines) != 1 {
		t.Errorf("coalesced %d lines, want 1", len(lines))
	}
	if lines[0] != 0x1000/128 {
		t.Errorf("line = %#x, want %#x", lines[0], 0x1000/128)
	}
}

func TestCoalesceLinesStrided(t *testing.T) {
	// Stride of one line per lane: 32 distinct lines, order preserved.
	addrs := make([]vm.Addr, 32)
	for i := range addrs {
		addrs[i] = vm.Addr(128 * i)
	}
	lines := CoalesceLinesInto(nil, addrs, 128)
	if len(lines) != 32 {
		t.Fatalf("coalesced %d lines, want 32", len(lines))
	}
	for i, l := range lines {
		if l != vm.Addr(i) {
			t.Fatalf("line order not preserved: lines[%d] = %d", i, l)
		}
	}
}

func TestCoalescePages(t *testing.T) {
	addrs := []vm.Addr{0, 100, 4096, 8191, 4096 * 3}
	pages := CoalescePages(addrs, 12)
	want := []vm.VPN{0, 1, 3}
	if len(pages) != len(want) {
		t.Fatalf("pages = %v, want %v", pages, want)
	}
	for i := range want {
		if pages[i] != want[i] {
			t.Fatalf("pages = %v, want %v", pages, want)
		}
	}
}

// Property: coalescing yields exactly the distinct set, first-occurrence
// ordered, never longer than the input.
func TestCoalesceProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > arch.WarpSize {
			raw = raw[:arch.WarpSize]
		}
		addrs := make([]vm.Addr, len(raw))
		for i, r := range raw {
			addrs[i] = vm.Addr(r)
		}
		pages := CoalescePages(addrs, 4) // 16-byte pages: plenty of dups
		seen := map[vm.VPN]bool{}
		for _, p := range pages {
			if seen[p] {
				return false // duplicate emitted
			}
			seen[p] = true
		}
		for _, a := range addrs {
			if !seen[vm.VPN(a>>4)] {
				return false // dropped a page
			}
		}
		return len(pages) <= len(addrs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the fused coalescer emits exactly CoalescePagesInto's pages and
// CoalesceLinesInto's lines, in the same order, and maps every line to the
// page it lies in.
func TestCoalescedMatchesSeparatePasses(t *testing.T) {
	var c Coalesced
	f := func(raw []uint16) bool {
		if len(raw) > arch.WarpSize {
			raw = raw[:arch.WarpSize]
		}
		addrs := make([]vm.Addr, len(raw))
		for i, r := range raw {
			addrs[i] = vm.Addr(r)
		}
		const pageShift, lineShift = 8, 4 // 256-byte pages, 16-byte lines
		c.Coalesce(addrs, pageShift, lineShift)
		pages := CoalescePages(addrs, pageShift)
		lines := CoalesceLinesInto(nil, addrs, 1<<lineShift)
		if len(c.Pages) != len(pages) || len(c.Lines) != len(lines) || len(c.LinePage) != len(lines) {
			return false
		}
		for i := range pages {
			if c.Pages[i] != pages[i] {
				return false
			}
		}
		for i, l := range lines {
			if c.Lines[i] != l || c.Pages[c.LinePage[i]] != vm.VPN(l>>(pageShift-lineShift)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// When the set's generation counter wraps, entries left from earlier calls
// must not read as lines of the current one.
func TestCoalescedGenerationWrap(t *testing.T) {
	var c Coalesced
	addrs := []vm.Addr{0, 128, 256}
	c.Coalesce(addrs, 12, 7)
	c.gen = ^uint32(0) // the next call wraps to zero
	c.Coalesce(addrs, 12, 7)
	if len(c.Lines) != 3 {
		t.Fatalf("after wrap: lines = %v, want 3 distinct", c.Lines)
	}
}

func TestConcurrentTBsPerSM(t *testing.T) {
	cfg := arch.Default()
	k := &Kernel{Name: "k", ThreadsPerTB: 128}
	// 2048/128 = 16 by threads, 64/4 = 16 by warps, 16 slots: min = 16.
	if got := k.ConcurrentTBsPerSM(cfg); got != 16 {
		t.Errorf("128-thread TBs: %d per SM, want 16", got)
	}
	k.ThreadsPerTB = 512
	if got := k.ConcurrentTBsPerSM(cfg); got != 4 {
		t.Errorf("512-thread TBs: %d per SM, want 4", got)
	}
	k.ThreadsPerTB = 128
	k.RegsPerThread = 64 // 16384 regs / (64*128) = 2
	if got := k.ConcurrentTBsPerSM(cfg); got != 2 {
		t.Errorf("register-bound: %d per SM, want 2", got)
	}
	k.RegsPerThread = 0
	k.SharedMemPerTB = 16 << 10 // 48KB/16KB = 3
	if got := k.ConcurrentTBsPerSM(cfg); got != 3 {
		t.Errorf("shared-memory-bound: %d per SM, want 3", got)
	}
	k.SharedMemPerTB = 0
	cfg.ThrottleTBsPerSM = 2
	if got := k.ConcurrentTBsPerSM(cfg); got != 2 {
		t.Errorf("throttled: %d per SM, want 2", got)
	}
	// Even an oversubscribed TB gets one slot.
	cfg = arch.Default()
	k.SharedMemPerTB = 100 << 10
	if got := k.ConcurrentTBsPerSM(cfg); got != 1 {
		t.Errorf("oversized TB: %d per SM, want 1", got)
	}
}

func TestWarpsPerTB(t *testing.T) {
	for _, tc := range []struct{ threads, want int }{
		{32, 1}, {33, 2}, {256, 8}, {1, 1},
	} {
		k := &Kernel{ThreadsPerTB: tc.threads}
		if got := k.WarpsPerTB(); got != tc.want {
			t.Errorf("WarpsPerTB(%d) = %d, want %d", tc.threads, got, tc.want)
		}
	}
}

func TestTBPageTraceInterleavesWarps(t *testing.T) {
	mem := func(page int) Inst {
		return Inst{Addrs: []vm.Addr{vm.Addr(page) << 12}}
	}
	tb := TBTrace{
		Warps: []WarpTrace{
			{Insts: []Inst{mem(1), mem(2)}},
			{Insts: []Inst{mem(10), {Compute: 5}, mem(11)}},
		},
	}
	got := TBPageTrace(tb, 12)
	want := []vm.VPN{1, 10, 2, 11} // round-robin: w0i0 w1i0 w0i1 w1i1(compute) -> w1i2
	if len(got) != len(want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace = %v, want %v", got, want)
		}
	}
}

func TestMemInsts(t *testing.T) {
	k := &Kernel{
		TBs: []TBTrace{
			{Warps: []WarpTrace{{Insts: []Inst{
				{Compute: 3},
				{Addrs: []vm.Addr{1}},
				{Addrs: []vm.Addr{2}},
			}}}},
			{Warps: []WarpTrace{{Insts: []Inst{{Addrs: []vm.Addr{3}}}}}},
		},
	}
	if got := k.MemInsts(); got != 3 {
		t.Errorf("MemInsts = %d, want 3", got)
	}
}

func TestInstIsMem(t *testing.T) {
	if (Inst{Compute: 4}).IsMem() {
		t.Error("compute instruction reported as memory")
	}
	if !(Inst{Addrs: []vm.Addr{0}}).IsMem() {
		t.Error("memory instruction not reported as memory")
	}
}
