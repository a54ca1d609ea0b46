package trace

import (
	"fmt"
	"sync"

	"gputlb/internal/arch"
	"gputlb/internal/vm"
)

// Inst is one warp instruction. If Addrs is non-nil it is a memory
// instruction with one address per active lane (at most arch.WarpSize);
// otherwise it models Compute cycles of ALU work.
type Inst struct {
	Compute int
	Addrs   []vm.Addr
}

// IsMem reports whether the instruction accesses memory.
func (in Inst) IsMem() bool { return in.Addrs != nil }

// WarpTrace is the instruction stream of one warp.
type WarpTrace struct {
	Insts []Inst
}

// TBTrace is one thread block: its grid-wide id and its warps.
type TBTrace struct {
	ID    int
	Warps []WarpTrace
}

// Kernel is a full launch: a name, the TB geometry, and per-TB traces.
type Kernel struct {
	Name         string
	ThreadsPerTB int
	// RegsPerThread and SharedMemPerTB drive the occupancy calculation that
	// fixes concurrent TBs per SM at launch (paper §IV-B point two).
	RegsPerThread  int
	SharedMemPerTB int
	TBs            []TBTrace
	// PhaseStarts lists TB indices that begin a new dependent phase (a
	// separate kernel launch in the real application, e.g. the transposed
	// sweep of atax). The dispatcher must not launch a TB of phase p until
	// every TB of earlier phases has completed.
	PhaseStarts []int

	// lines memoizes Lines, one stream per line size asked for.
	linesMu sync.Mutex
	lines   []*LineStream
}

// ValidatePhases checks that PhaseStarts is strictly ascending and in range.
func (k *Kernel) ValidatePhases() error {
	prev := 0
	for _, b := range k.PhaseStarts {
		if b <= prev || b >= len(k.TBs) {
			return fmt.Errorf("trace: phase start %d out of order or range (TBs %d)", b, len(k.TBs))
		}
		prev = b
	}
	return nil
}

// WarpsPerTB returns the warp count per TB.
func (k *Kernel) WarpsPerTB() int { return (k.ThreadsPerTB + arch.WarpSize - 1) / arch.WarpSize }

// ConcurrentTBsPerSM computes how many TBs of this kernel fit on one SM, the
// compile-time occupancy bound: threads, registers, shared memory, warp
// slots, and the hardware TB-slot limit.
func (k *Kernel) ConcurrentTBsPerSM(cfg arch.Config) int {
	n := cfg.EffectiveMaxTBsPerSM()
	if byThreads := cfg.MaxThreads / k.ThreadsPerTB; byThreads < n {
		n = byThreads
	}
	if byWarps := cfg.MaxWarpsPerSM / k.WarpsPerTB(); byWarps < n {
		n = byWarps
	}
	if k.RegsPerThread > 0 {
		if byRegs := cfg.RegistersPerSM / (k.RegsPerThread * k.ThreadsPerTB); byRegs < n {
			n = byRegs
		}
	}
	if k.SharedMemPerTB > 0 {
		if bySmem := cfg.SharedMemPerSM / k.SharedMemPerTB; bySmem < n {
			n = bySmem
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// MemInsts counts memory instructions across the kernel.
func (k *Kernel) MemInsts() int {
	n := 0
	for _, tb := range k.TBs {
		for _, w := range tb.Warps {
			for _, in := range w.Insts {
				if in.IsMem() {
					n++
				}
			}
		}
	}
	return n
}

// CoalesceLines merges a warp's lane addresses into unique cache-line
// addresses, preserving first-occurrence order (the coalescing unit issues
// one request per distinct line).
func CoalesceLines(addrs []vm.Addr, lineBytes int) []vm.Addr {
	return CoalesceLinesInto(make([]vm.Addr, 0, 4), addrs, lineBytes)
}

// CoalesceLinesInto is CoalesceLines appending into dst (reset to length
// zero), the allocation-free emit path: a caller that passes a buffer with
// capacity arch.WarpSize never allocates. Returns the filled buffer.
func CoalesceLinesInto(dst []vm.Addr, addrs []vm.Addr, lineBytes int) []vm.Addr {
	dst = dst[:0]
	shift := uintLog2(lineBytes)
	for _, a := range addrs {
		line := a >> shift
		dup := false
		for _, s := range dst {
			if s == line {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, line)
		}
	}
	return dst
}

// CoalescePages merges lane addresses into unique virtual page numbers,
// preserving first-occurrence order — the translation requests one warp
// memory instruction sends to the L1 TLB.
func CoalescePages(addrs []vm.Addr, pageShift uint) []vm.VPN {
	return CoalescePagesInto(make([]vm.VPN, 0, 2), addrs, pageShift)
}

// CoalescePagesInto is CoalescePages appending into dst (reset to length
// zero), the allocation-free emit path used by the simulator's per-
// instruction loop. Returns the filled buffer.
func CoalescePagesInto(dst []vm.VPN, addrs []vm.Addr, pageShift uint) []vm.VPN {
	dst = dst[:0]
	for _, a := range addrs {
		p := vm.VPN(a >> pageShift)
		dup := false
		for _, s := range dst {
			if s == p {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, p)
		}
	}
	return dst
}

// Coalesced is one warp memory instruction's requests after coalescing:
// the output of CoalescePagesInto and CoalesceLinesInto together, plus
// which page each line lies in. The zero value is ready to use; Coalesce
// reuses its buffers, so a caller that keeps one Coalesced per issuing SM
// never allocates in steady state.
type Coalesced struct {
	Pages    []vm.VPN  // distinct pages, first-occurrence order
	Lines    []vm.Addr // distinct line addresses (addr >> lineShift), first-occurrence order
	LinePage []int     // LinePage[i] is the index in Pages of Lines[i]'s page

	// seen is an open-addressed set of the current call's lines, valid
	// where gen matches: a scattered warp has ~30 distinct lines, and
	// probing this beats scanning Lines once per lane.
	seen [1 << seenBits]seenLine
	gen  uint32
}

// seenBits sizes Coalesced's line set: 64 slots stay at most half full
// with a warp's 32 lanes.
const seenBits = 6

type seenLine struct {
	line vm.Addr
	gen  uint32
}

// Coalesce replaces c's contents with addrs — one warp's lanes, at most
// arch.WarpSize of them, as in Inst.Addrs — coalesced into pages of
// 1<<pageShift bytes and lines of 1<<lineShift bytes, in one pass over
// the lanes. pageShift must be at least lineShift, so every line lies in
// one page.
func (c *Coalesced) Coalesce(addrs []vm.Addr, pageShift, lineShift uint) {
	if 2*len(addrs) > len(c.seen) {
		panic(fmt.Sprintf("trace: Coalesce of %d lanes, more than a warp's %d", len(addrs), len(c.seen)/2))
	}
	pages, lines, linePage := c.Pages[:0], c.Lines[:0], c.LinePage[:0]
	c.gen++
	if c.gen == 0 { // wrapped: stale entries would look current
		c.seen = [len(c.seen)]seenLine{}
		c.gen = 1
	}
	seen, gen := &c.seen, c.gen
	const mask = len(c.seen) - 1
	for _, a := range addrs {
		line := a >> lineShift
		// Neighbouring lanes usually share a line; otherwise ask the set.
		// A lane whose line is known adds no page either — the line's
		// first lane already brought it in.
		if n := len(lines); n > 0 && lines[n-1] == line {
			continue
		}
		h := int(uint64(line) * 0x9E3779B97F4A7C15 >> (64 - seenBits))
		for seen[h].gen == gen && seen[h].line != line {
			h = (h + 1) & mask
		}
		if seen[h].gen == gen {
			continue
		}
		seen[h] = seenLine{line: line, gen: gen}
		p := vm.VPN(a >> pageShift)
		pi := len(pages) - 1
		for pi >= 0 && pages[pi] != p {
			pi--
		}
		if pi < 0 {
			pi = len(pages)
			pages = append(pages, p)
		}
		lines = append(lines, line)
		linePage = append(linePage, pi)
	}
	c.Pages, c.Lines, c.LinePage = pages, lines, linePage
}

func uintLog2(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// TBPageTrace flattens one TB into its translation-request stream: warps are
// interleaved round-robin one instruction at a time (approximating fair
// intra-TB warp scheduling) and each memory instruction contributes its
// coalesced pages in order. This is the stream the paper's characterization
// (Eq. 1 and the reuse-distance CDFs) operates on.
func TBPageTrace(tb TBTrace, pageShift uint) []vm.VPN {
	var out []vm.VPN
	idx := make([]int, len(tb.Warps))
	for {
		progressed := false
		for w := range tb.Warps {
			insts := tb.Warps[w].Insts
			if idx[w] >= len(insts) {
				continue
			}
			in := insts[idx[w]]
			idx[w]++
			progressed = true
			if in.IsMem() {
				out = append(out, CoalescePages(in.Addrs, pageShift)...)
			}
		}
		if !progressed {
			return out
		}
	}
}
