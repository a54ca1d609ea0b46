package tlbmech

import (
	"math/bits"

	"gputlb/internal/stats"
	"gputlb/internal/vm"
)

// subentryMech implements sub-entry sharing: co-running tenants whose
// translations differ only in ASID-local frames share one tag, with a
// per-ASID frame slot under it. A lookup hits only when the requesting
// tenant's own sub-slot is filled, so tenants can never observe each
// other's frames — capacity is shared, translations are not.
type subentryMech struct {
	// slots holds vm.MaxTenants frame slots per entry, +1 encoded so a
	// zero slot means empty; masks is the per-entry bitmap of filled
	// sub-slots. Both are indexed by the entry's global index.
	slots []vm.PPN
	masks []uint8

	tagFills   int64 // fresh tags installed
	subFills   int64 // sub-slots filled under an existing tag
	sharedTags int64 // sub-fills that joined another tenant's tag
	sharedHits int64 // hits on tags shared by more than one tenant
}

func newSubentry() *subentryMech { return &subentryMech{} }

func (m *subentryMech) Name() string    { return "subentry" }
func (m *subentryMech) DeadAware() bool { return false }

func (m *subentryMech) Attach(sets, assoc int) {
	n := sets * assoc
	m.slots = make([]vm.PPN, n*vm.MaxTenants)
	m.masks = make([]uint8, n)
}

func (m *subentryMech) Tag(vpn vm.VPN) vm.VPN   { return vpn }
func (m *subentryMech) Index(vpn vm.VPN) uint64 { return uint64(vpn) }
func (m *subentryMech) Dead(*Entry, int) bool   { return false }
func (m *subentryMech) OnEvict(*Entry, int)     {}

func (m *subentryMech) Lookup(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool) {
	mask := m.masks[idx]
	if mask&(1<<asid) == 0 {
		return 0, false
	}
	if bits.OnesCount8(mask) > 1 {
		m.sharedHits++
	}
	return m.slots[idx*vm.MaxTenants+int(asid)] - 1, true
}

func (m *subentryMech) Peek(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool) {
	if m.masks[idx]&(1<<asid) == 0 {
		return 0, false
	}
	return m.slots[idx*vm.MaxTenants+int(asid)] - 1, true
}

func (m *subentryMech) Absorb(e *Entry, idx int, asid vm.ASID, vpn vm.VPN, ppn vm.PPN, clock uint64) AbsorbResult {
	bit := uint8(1) << asid
	m.slots[idx*vm.MaxTenants+int(asid)] = ppn + 1
	e.Stamp = clock
	if m.masks[idx]&bit != 0 {
		return AbsorbRefreshed
	}
	m.subFills++
	if m.masks[idx] != 0 {
		m.sharedTags++
	}
	m.masks[idx] |= bit
	return AbsorbCoalesced // the tag newly covers this tenant's page
}

func (m *subentryMech) Fill(e *Entry, idx int, asid vm.ASID, vpn, tag vm.VPN, ppn vm.PPN, clock uint64) {
	*e = Entry{Valid: true, ASID: asid, VPN: tag, PPN: ppn, Stamp: clock, Filled: clock}
	m.masks[idx] = 1 << asid
	m.slots[idx*vm.MaxTenants+int(asid)] = ppn + 1
	m.tagFills++
	m.subFills++
}

func (m *subentryMech) Update(e *Entry, idx int, asid vm.ASID, vpn vm.VPN, ppn vm.PPN) bool {
	if m.masks[idx]&(1<<asid) == 0 {
		return false
	}
	m.slots[idx*vm.MaxTenants+int(asid)] = ppn + 1
	if e.ASID == asid {
		e.PPN = ppn
	}
	return true
}

func (m *subentryMech) Translations(e *Entry, idx int, yield func(vm.ASID, vm.VPN, vm.PPN)) {
	mask := m.masks[idx]
	for a := 0; a < vm.MaxTenants && mask != 0; a++ {
		bit := uint8(1) << a
		if mask&bit == 0 {
			continue
		}
		mask &^= bit
		yield(vm.ASID(a), e.VPN, m.slots[idx*vm.MaxTenants+a]-1)
	}
}

func (m *subentryMech) OnFlush() {
	for i := range m.masks {
		m.masks[i] = 0
	}
}

func (m *subentryMech) RegisterStats(r *stats.Registry) {
	mr := r.Child("mech")
	mr.CounterFunc("tag_fills", func() int64 { return m.tagFills })
	mr.CounterFunc("sub_fills", func() int64 { return m.subFills })
	mr.CounterFunc("shared_tags", func() int64 { return m.sharedTags })
	mr.CounterFunc("shared_hits", func() int64 { return m.sharedHits })
	mr.GaugeFunc("sharing_ratio", func() float64 {
		if m.subFills == 0 {
			return 0
		}
		return float64(m.sharedTags) / float64(m.subFills)
	})
}

func (m *subentryMech) Fold(src Mechanism) {
	s := src.(*subentryMech)
	m.tagFills += s.tagFills
	m.subFills += s.subFills
	m.sharedTags += s.sharedTags
	m.sharedHits += s.sharedHits
}
