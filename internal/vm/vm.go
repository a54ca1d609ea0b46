package vm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"gputlb/internal/stats"
)

// Addr is a virtual or physical byte address.
type Addr uint64

// VPN is a virtual page number (address >> page shift).
type VPN uint64

// PPN is a physical page number.
type PPN uint64

// ASID identifies a tenant's address space in multi-tenant runs. TLB and
// page-walk-cache entries, MSHRs, and in-flight walker state are tagged with
// it so co-running kernels contend for capacity without ever aliasing each
// other's translations. Single-tenant runs use ASID 0 throughout, which
// keeps their behaviour bit-identical to the pre-tenancy simulator.
type ASID uint8

// MaxTenants bounds how many address spaces can co-run in one simulation;
// it is the practical limit for ASID key-packing in the MSHR tables, far
// above the 2-4 concurrent kernels the experiments sweep.
const MaxTenants = 8

// Levels in the radix page table (PML4, PDP, PD, PT).
const Levels = 4

// bitsPerLevel is the radix width of each level (512-entry tables).
const bitsPerLevel = 9

// pageTableNode is one 512-entry radix node. Interior links are atomic
// pointers so concurrent walkers touching disjoint VPN ranges (the sliced
// barrier's per-slice passes) can lazily create interior nodes without
// locks: creation races are resolved by compare-and-swap, and the final
// radix structure is identical regardless of who wins. Leaf entries stay
// plain PPNs — every leaf element is only ever written by the one slice
// that owns its VPN, so element-granular writes never race.
type pageTableNode struct {
	children [1 << bitsPerLevel]atomic.Pointer[pageTableNode] // interior
	leaves   [1 << bitsPerLevel]PPN                           // leaf level, +1 encoded
}

// PageTable is a four-level radix page table keyed by VPN. Huge (2MB) pages
// are supported by constructing the table with pageShift 21: the VPN space
// shrinks and every walk still touches the full radix, matching a page table
// whose leaves sit one level higher. The zero value is not usable; call
// NewPageTable.
type PageTable struct {
	root      *pageTableNode
	pageShift uint
	mapped    atomic.Int64
}

// NewPageTable returns an empty table for the given page shift (12 for 4KB,
// 21 for 2MB base pages).
func NewPageTable(pageShift uint) *PageTable {
	return &PageTable{root: &pageTableNode{}, pageShift: pageShift}
}

// PageShift returns the base page shift used for VPN computation.
func (pt *PageTable) PageShift() uint { return pt.pageShift }

// Mapped returns the number of mapped pages.
func (pt *PageTable) Mapped() int { return int(pt.mapped.Load()) }

// indices splits a VPN into per-level radix indices, most significant first.
// For 2MB base pages only three levels index (the PT level is absorbed into
// the huge leaf); we still compute four and stop early.
func indices(vpn VPN) [Levels]int {
	var ix [Levels]int
	for l := Levels - 1; l >= 0; l-- {
		ix[l] = int(vpn & ((1 << bitsPerLevel) - 1))
		vpn >>= bitsPerLevel
	}
	return ix
}

// Map installs vpn -> ppn as a base-page leaf. Remapping an existing page is
// an error: UVM never remaps a resident page.
func (pt *PageTable) Map(vpn VPN, ppn PPN) error {
	ix := indices(vpn)
	n := pt.root
	for l := 0; l < Levels-1; l++ {
		child := n.children[ix[l]].Load()
		if child == nil {
			child = &pageTableNode{}
			if !n.children[ix[l]].CompareAndSwap(nil, child) {
				child = n.children[ix[l]].Load()
			}
		}
		n = child
	}
	if n.leaves[ix[Levels-1]] != 0 {
		return fmt.Errorf("vm: VPN %#x already mapped", uint64(vpn))
	}
	n.leaves[ix[Levels-1]] = ppn + 1
	pt.mapped.Add(1)
	return nil
}

// WalkResult describes a completed page-table walk.
type WalkResult struct {
	PPN    PPN
	Found  bool
	Levels int // radix levels touched (memory references the walker made)
}

// Walk resolves vpn, reporting how many levels the walker touched. A missing
// translation (page fault under UVM) still walks until the absent entry.
func (pt *PageTable) Walk(vpn VPN) WalkResult {
	ix := indices(vpn)
	n := pt.root
	for l := 0; l < Levels-1; l++ {
		child := n.children[ix[l]].Load()
		if child == nil {
			return WalkResult{Levels: l + 1}
		}
		n = child
	}
	if ppn := n.leaves[ix[Levels-1]]; ppn != 0 {
		return WalkResult{PPN: ppn - 1, Found: true, Levels: Levels}
	}
	return WalkResult{Levels: Levels}
}

// Translate is Walk without the bookkeeping, for functional use.
func (pt *PageTable) Translate(vpn VPN) (PPN, bool) {
	r := pt.Walk(vpn)
	return r.PPN, r.Found
}

// frameCounter hands out physical frames in fault order: each fault takes
// the next n frames, so a basic block is backed contiguously and
// consecutive faults get consecutive ranges.
type frameCounter struct {
	base PPN // first frame this counter hands out
	next PPN
}

func newFrameCounter(base PPN) frameCounter { return frameCounter{base: base, next: base} }

// take reserves the next n frames and returns the first.
func (c *frameCounter) take(n int) PPN {
	p := c.next
	c.next += PPN(n)
	return p
}

// allocated returns how many frames the counter has handed out.
func (c *frameCounter) allocated() uint64 { return uint64(c.next - c.base) }

// AllocMode selects how demand paging picks physical frames.
type AllocMode int

const (
	// AllocFirstTouch is the default UVM behaviour: frames are
	// bump-allocated in fault order, so physical layout follows the access
	// pattern.
	AllocFirstTouch AllocMode = iota
	// AllocContig is a contiguity-preserving allocator: the frame for a
	// page is a pure function of its VPN that keeps every aligned
	// ContigRunPages-page virtual subregion physically contiguous,
	// regardless of fault order. It models an eager/reservation-based
	// allocator and is the supply side of the large-reach TLB mechanism.
	AllocContig
)

// ContigRunPages is the aligned virtual subregion size (in pages) that
// AllocContig keeps physically contiguous: 512 pages = 2MB at 4KB pages,
// the page-table-leaf granularity reservation allocators operate at.
const ContigRunPages = 512

// ParseAllocMode maps a CLI/experiment name to an AllocMode. The empty
// string means first-touch.
func ParseAllocMode(name string) (AllocMode, error) {
	switch name {
	case "", "firsttouch":
		return AllocFirstTouch, nil
	case "contig":
		return AllocContig, nil
	default:
		return 0, fmt.Errorf("vm: unknown alloc mode %q (want firsttouch or contig)", name)
	}
}

// String returns the mode's canonical CLI name.
func (m AllocMode) String() string {
	if m == AllocContig {
		return "contig"
	}
	return "firsttouch"
}

// contigFrameBits bounds the hashed subregion base so every contig frame
// stays far below the sharded engine's placeholder-PPN threshold (2^47).
const contigFrameBits = 36

// contigFrame returns AllocContig's frame for vpn: the 512-page subregion's
// base frame is a multiplicative hash of the subregion number (bijective
// over 36 bits, so distinct subregions never collide within any realistic
// footprint), and pages within the subregion get consecutive frames. Being
// a pure function of position, it is race-free under concurrent TouchSlice
// and yields identical PPNs in every engine and slicing configuration.
func contigFrame(vpn VPN) PPN {
	sub := uint64(vpn) / ContigRunPages
	base := (sub * 0x9E3779B97F4A7C15) & (1<<contigFrameBits - 1)
	return PPN(1 + base*ContigRunPages + uint64(vpn)%ContigRunPages)
}

// Region is a named virtual allocation (one data structure of a kernel).
type Region struct {
	Name  string
	Base  Addr
	Bytes uint64
}

// End returns one past the last byte.
func (r Region) End() Addr { return r.Base + Addr(r.Bytes) }

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// AddressSpace is a UVM virtual address space: a bump allocator for regions
// plus a demand-paged page table.
type AddressSpace struct {
	pt          *PageTable
	frames      frameCounter   // the serial Touch path's frames
	sliceFrames []frameCounter // one per slice, set by ConfigureSlices
	pageShift   uint
	allocMode   AllocMode
	contigPages atomic.Uint64 // pages mapped by AllocContig
	nextVA      Addr
	regions     []Region
	faults      atomic.Uint64
}

// regionAlign separates consecutive regions so distinct data structures
// never share a page, matching distinct cudaMallocManaged allocations.
const regionAlign = 1 << 21 // 2MB, so regions stay huge-page aligned too

// NewAddressSpace creates a UVM space with the given base page shift.
// Frames are handed out from frame 1 (frame 0 is reserved so a zero PPN
// never aliases a real frame) in fault order.
func NewAddressSpace(pageShift uint) *AddressSpace {
	return &AddressSpace{
		pt:        NewPageTable(pageShift),
		frames:    newFrameCounter(1),
		pageShift: pageShift,
		nextVA:    regionAlign, // keep VA 0 unmapped
	}
}

// Fork returns a pristine address space with the same page shift, alloc
// mode and region layout as as, but an empty page table and a fresh frame
// counter: exactly the state a workload builder leaves behind, since
// builders only Alloc regions and never Touch pages. It lets one built
// kernel trace be simulated many times — each run demand-pages its own
// fork — without rebuilding the workload. Forking a space whose pages have
// already been touched does not carry the mappings over.
func (as *AddressSpace) Fork() *AddressSpace {
	f := NewAddressSpace(as.pageShift)
	f.allocMode = as.allocMode
	f.nextVA = as.nextVA
	f.regions = append([]Region(nil), as.regions...)
	return f
}

// SetAllocMode switches the demand-paging frame policy. It must be called
// before any page is touched — mixing policies within one space would break
// the contiguity invariant largereach property tests rely on.
func (as *AddressSpace) SetAllocMode(m AllocMode) error {
	if as.pt.Mapped() != 0 {
		return fmt.Errorf("vm: cannot switch alloc mode with %d pages already mapped", as.pt.Mapped())
	}
	as.allocMode = m
	return nil
}

// GetAllocMode returns the demand-paging frame policy.
func (as *AddressSpace) GetAllocMode() AllocMode { return as.allocMode }

// PageShift returns the base page shift.
func (as *AddressSpace) PageShift() uint { return as.pageShift }

// PageTable exposes the underlying table (the walker needs it).
func (as *AddressSpace) PageTable() *PageTable { return as.pt }

// Faults returns the number of demand-paging faults taken so far.
func (as *AddressSpace) Faults() uint64 { return as.faults.Load() }

// Regions returns the allocated regions in allocation order.
func (as *AddressSpace) Regions() []Region { return as.regions }

// RegisterStats registers the address space's demand-paging counters into
// r; values are read lazily at snapshot time.
func (as *AddressSpace) RegisterStats(r *stats.Registry) {
	r.CounterFunc("faults", func() int64 { return int64(as.faults.Load()) })
	r.CounterFunc("mapped_pages", func() int64 { return int64(as.pt.Mapped()) })
	r.CounterFunc("frames_allocated", func() int64 {
		n := as.frames.allocated() + as.contigPages.Load()
		for i := range as.sliceFrames {
			n += as.sliceFrames[i].allocated()
		}
		return int64(n)
	})
	r.CounterFunc("regions", func() int64 { return int64(len(as.regions)) })
}

// Alloc reserves bytes of virtual space under name. Nothing is mapped until
// first touch (UVM demand paging).
func (as *AddressSpace) Alloc(name string, bytes uint64) (Region, error) {
	if bytes == 0 {
		return Region{}, errors.New("vm: zero-byte allocation")
	}
	r := Region{Name: name, Base: as.nextVA, Bytes: bytes}
	span := (bytes + regionAlign - 1) / regionAlign * regionAlign
	as.nextVA += Addr(span)
	as.regions = append(as.regions, r)
	return r, nil
}

// VPNOf returns the virtual page number of a.
func (as *AddressSpace) VPNOf(a Addr) VPN { return VPN(a >> as.pageShift) }

// BasicBlockPages is the UVM driver's population granularity: a fault
// populates this many virtually-contiguous pages with physically-contiguous
// frames (the 64KB basic block of the NVIDIA driver, at 4KB pages). Huge
// (2MB) base pages are populated one page per fault.
const BasicBlockPages = 16

// blockPages returns the population granularity for the space's page size.
func (as *AddressSpace) blockPages() int {
	if as.pageShift >= 21 {
		return 1
	}
	return BasicBlockPages
}

// sliceFrameBits positions per-slice frame-counter bases 2^40 frames
// apart: far enough that slice pools never collide over any simulated
// footprint, yet well below the simulator's placeholder-PPN threshold.
const sliceFrameBits = 40

// ConfigureSlices equips the space with k per-slice frame counters at
// disjoint bases so TouchSlice can demand-page concurrently from each
// slice. Slice s hands out frames from 1 + s<<sliceFrameBits; the serial
// Touch counter is untouched. Reconfiguring with the same k is a no-op; the
// method is not safe to call concurrently with TouchSlice.
func (as *AddressSpace) ConfigureSlices(k int) {
	if k < 1 || len(as.sliceFrames) == k {
		return
	}
	as.sliceFrames = make([]frameCounter, k)
	for s := range as.sliceFrames {
		as.sliceFrames[s] = newFrameCounter(PPN(1) + PPN(s)<<sliceFrameBits)
	}
}

// Touch resolves the page containing a, mapping its whole basic block on
// first touch (UVM demand paging). It reports the PPN and whether this
// access faulted.
func (as *AddressSpace) Touch(a Addr) (PPN, bool) {
	return as.touchFrom(a, &as.frames)
}

// TouchSlice is Touch using slice s's frame counter. Callers must route
// every page of a basic block to the same slice (the block-aligned VPN
// slicing the simulator uses guarantees this), which makes concurrent
// TouchSlice calls for distinct slices race-free: they populate disjoint
// leaf entries from disjoint frame pools, and interior radix nodes are
// created with lock-free compare-and-swap.
func (as *AddressSpace) TouchSlice(a Addr, s int) (PPN, bool) {
	return as.touchFrom(a, &as.sliceFrames[s])
}

func (as *AddressSpace) touchFrom(a Addr, frames *frameCounter) (PPN, bool) {
	vpn := as.VPNOf(a)
	if ppn, ok := as.pt.Translate(vpn); ok {
		return ppn, false
	}
	// Populate the aligned basic block: consecutive frames for consecutive
	// pages, skipping pages that are somehow already mapped. Under
	// AllocContig the frame is positional (contigFrame), which still yields
	// consecutive frames within the block — blocks are aligned, so a block
	// never straddles a ContigRunPages subregion boundary.
	n := VPN(as.blockPages())
	base := vpn &^ (n - 1)
	var frame PPN
	if as.allocMode != AllocContig {
		frame = frames.take(int(n))
	}
	var out PPN
	for off := VPN(0); off < n; off++ {
		v := base + off
		if _, ok := as.pt.Translate(v); ok {
			continue
		}
		p := frame + PPN(off)
		if as.allocMode == AllocContig {
			p = contigFrame(v)
			as.contigPages.Add(1)
		}
		if err := as.pt.Map(v, p); err != nil {
			// Unreachable: Translate just reported the page absent.
			panic(err)
		}
		if v == vpn {
			out = p
		}
	}
	as.faults.Add(1)
	return out, true
}
