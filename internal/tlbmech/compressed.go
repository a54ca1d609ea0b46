package tlbmech

import (
	"gputlb/internal/stats"
	"gputlb/internal/vm"
)

// GroupPages is the compressed mechanism's aligned group size: one entry
// covers up to this many pages of a group that share one VPN→PPN delta.
const GroupPages = 8

// CompressedProbeLatency is the cycles the compressed mechanism's
// comparator adds to every L1 TLB probe (it sits on the critical path).
const CompressedProbeLatency = 2

// compressedMech is the PACT'20 TLB-compression comparator of Figure 12:
// an entry is tagged with an aligned group of GroupPages pages and holds
// one VPN→PPN delta plus a presence bitmap, so the pages of a group whose
// frames are contiguous share one entry. Like largereach it coalesces
// contiguous runs inside an aligned window, but with a fixed small window
// and a bitmap instead of run bounds. It registers no mechanism-level
// metrics, keeping Figure 12's snapshots in their historical shape.
type compressedMech struct {
	// masks is the per-entry presence bitmap, indexed by the entry's
	// global index. e.PPN stores the PPN the group base would have under
	// the entry's delta (possibly wrapped; only PPN+offset is meaningful).
	masks []uint8
}

func newCompressed(sets, assoc int) *compressedMech {
	return &compressedMech{masks: make([]uint8, sets*assoc)}
}

func (m *compressedMech) DeadAware() bool       { return false }
func (m *compressedMech) Dead(*Entry, int) bool { return false }
func (m *compressedMech) OnEvict(*Entry, int)   {}
func (m *compressedMech) OnFlush()              {} // Fill rewrites the bitmap

// groupBit returns the presence-bitmap bit for vpn within its group.
func groupBit(vpn vm.VPN) uint8 { return 1 << (vpn & (GroupPages - 1)) }

func (m *compressedMech) Tag(vpn vm.VPN) vm.VPN   { return vpn &^ (GroupPages - 1) }
func (m *compressedMech) Index(vpn vm.VPN) uint64 { return uint64(vpn) / GroupPages }

func (m *compressedMech) Lookup(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool) {
	if e.ASID != asid || m.masks[idx]&groupBit(vpn) == 0 {
		return 0, false
	}
	return e.PPN + vm.PPN(vpn-e.VPN), true
}

func (m *compressedMech) Peek(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool) {
	return m.Lookup(e, idx, asid, vpn) // Lookup has no side effects
}

func (m *compressedMech) Absorb(e *Entry, idx int, asid vm.ASID, vpn vm.VPN, ppn vm.PPN, clock uint64) AbsorbResult {
	// Coalesce only when the VPN→PPN delta matches the stored run.
	if e.ASID != asid || e.PPN+vm.PPN(vpn-e.VPN) != ppn {
		return AbsorbNo
	}
	b := groupBit(vpn)
	res := AbsorbRefreshed
	if m.masks[idx]&b == 0 {
		res = AbsorbCoalesced
	}
	m.masks[idx] |= b
	e.Stamp = clock
	return res
}

func (m *compressedMech) Fill(e *Entry, idx int, asid vm.ASID, vpn, tag vm.VPN, ppn vm.PPN, clock uint64) {
	// Store the PPN the group base would have if the run were contiguous;
	// coalescing later verifies the delta holds.
	*e = Entry{Valid: true, ASID: asid, VPN: tag, PPN: ppn - vm.PPN(vpn-tag), Stamp: clock, Filled: clock}
	m.masks[idx] = groupBit(vpn)
}

func (m *compressedMech) Update(e *Entry, idx int, asid vm.ASID, vpn vm.VPN, ppn vm.PPN) bool {
	if e.ASID != asid || m.masks[idx]&groupBit(vpn) == 0 {
		return false
	}
	// Store the group-base PPN the run would have so a lookup of vpn
	// returns exactly ppn.
	e.PPN = ppn - vm.PPN(vpn-e.VPN)
	return true
}

// Translations reports only the entry's group-base page: Figure 12's
// goldens pin that victim write-back.
func (m *compressedMech) Translations(e *Entry, _ int, yield func(vm.ASID, vm.VPN, vm.PPN)) {
	yield(e.ASID, e.VPN, e.PPN)
}

func (m *compressedMech) RegisterStats(*stats.Registry) {} // nothing: Figure 12 shape
func (m *compressedMech) Fold(Mechanism)                {}
