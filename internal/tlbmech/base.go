package tlbmech

import (
	"gputlb/internal/stats"
	"gputlb/internal/vm"
)

// baseMech is the pre-mechanism TLB's entry design extracted behind the
// interface: one (ASID, VPN)→PPN entry, optionally compressed into aligned
// groups with a presence bitmap and a single VPN→PPN delta (the PACT'20
// comparator). Every counting quirk of the historical TLB is preserved —
// the committed golden stats pin this byte-for-byte — and it registers no
// mechanism-level metrics so base snapshots keep the historical shape.
type baseMech struct {
	compress bool
	span     vm.VPN // group size in pages; meaningful only when compress
	log2span uint
}

func newBase(compress bool, span int) *baseMech {
	m := &baseMech{compress: compress}
	if compress {
		m.span = vm.VPN(span)
		for s := span; s > 1; s >>= 1 {
			m.log2span++
		}
	}
	return m
}

func (m *baseMech) Name() string          { return "base" }
func (m *baseMech) Attach(_, _ int)       {}
func (m *baseMech) DeadAware() bool       { return false }
func (m *baseMech) Dead(*Entry, int) bool { return false }
func (m *baseMech) OnEvict(*Entry, int)   {}
func (m *baseMech) OnFlush()              {}

// bit returns the presence-bitmap bit for vpn within its group, using the
// exact arithmetic of the historical TLB.
func (m *baseMech) bit(vpn vm.VPN) uint64 {
	return 1 << (uint64(vpn) & uint64(m.span-1))
}

func (m *baseMech) Tag(vpn vm.VPN) vm.VPN {
	if m.compress {
		return vpn &^ (m.span - 1)
	}
	return vpn
}

func (m *baseMech) Index(vpn vm.VPN) uint64 { return uint64(vpn) >> m.log2span }

func (m *baseMech) Lookup(e *Entry, _ int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool) {
	if e.ASID != asid {
		return 0, false
	}
	if !m.compress {
		return e.PPN, true
	}
	if e.Mask&m.bit(vpn) == 0 {
		return 0, false
	}
	return e.PPN + vm.PPN(vpn-e.VPN), true
}

func (m *baseMech) Peek(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool) {
	return m.Lookup(e, idx, asid, vpn) // base Lookup has no side effects
}

func (m *baseMech) Absorb(e *Entry, _ int, asid vm.ASID, vpn vm.VPN, ppn vm.PPN, clock uint64) AbsorbResult {
	if e.ASID != asid {
		return AbsorbNo
	}
	if !m.compress {
		e.PPN = ppn // same VPN: refresh (translation unchanged in practice)
		e.Stamp = clock
		return AbsorbRefreshed
	}
	// Coalesce only when the VPN→PPN delta matches the stored run.
	if e.PPN+vm.PPN(vpn-e.VPN) != ppn {
		return AbsorbNo
	}
	bit := m.bit(vpn)
	res := AbsorbRefreshed
	if e.Mask&bit == 0 {
		res = AbsorbCoalesced
	}
	e.Mask |= bit
	e.Stamp = clock
	return res
}

func (m *baseMech) Fill(e *Entry, _ int, asid vm.ASID, vpn, tag vm.VPN, ppn vm.PPN, clock uint64) {
	*e = Entry{Valid: true, ASID: asid, VPN: tag, Stamp: clock, Filled: clock}
	if m.compress {
		// Store the PPN the group base would have if the run were
		// contiguous; coalescing later verifies the delta holds.
		e.PPN = ppn - vm.PPN(vpn-tag)
		e.Mask = m.bit(vpn)
	} else {
		e.PPN = ppn
	}
}

func (m *baseMech) Update(e *Entry, _ int, asid vm.ASID, vpn vm.VPN, ppn vm.PPN) bool {
	if e.ASID != asid {
		return false
	}
	if m.compress {
		if e.Mask&m.bit(vpn) == 0 {
			return false
		}
		// Store the group-base PPN the run would have so a lookup of vpn
		// returns exactly ppn.
		e.PPN = ppn - vm.PPN(vpn-e.VPN)
	} else {
		e.PPN = ppn
	}
	return true
}

func (m *baseMech) Translations(e *Entry, _ int, yield func(vm.ASID, vm.VPN, vm.PPN)) {
	// Compressed entries report their base page, like the historical
	// OnEvict callback did.
	yield(e.ASID, e.VPN, e.PPN)
}

func (m *baseMech) RegisterStats(*stats.Registry) {} // nothing: golden shape
func (m *baseMech) Fold(Mechanism)                {}
