package tlbmech

import (
	"gputlb/internal/stats"
	"gputlb/internal/vm"
)

// baseMech is the pre-mechanism TLB's entry design extracted behind the
// interface: one (ASID, VPN)→PPN entry. Every counting quirk of the
// historical TLB is preserved — the committed golden stats pin this
// byte-for-byte — and it registers no mechanism-level metrics so base
// snapshots keep the historical shape.
type baseMech struct{}

func (*baseMech) DeadAware() bool       { return false }
func (*baseMech) Dead(*Entry, int) bool { return false }
func (*baseMech) OnEvict(*Entry, int)   {}
func (*baseMech) OnFlush()              {}

func (*baseMech) Tag(vpn vm.VPN) vm.VPN   { return vpn }
func (*baseMech) Index(vpn vm.VPN) uint64 { return uint64(vpn) }

func (*baseMech) Lookup(e *Entry, _ int, asid vm.ASID, _ vm.VPN) (vm.PPN, bool) {
	if e.ASID != asid {
		return 0, false
	}
	return e.PPN, true
}

func (m *baseMech) Peek(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool) {
	return m.Lookup(e, idx, asid, vpn) // base Lookup has no side effects
}

func (*baseMech) Absorb(e *Entry, _ int, asid vm.ASID, _ vm.VPN, ppn vm.PPN, clock uint64) AbsorbResult {
	if e.ASID != asid {
		return AbsorbNo
	}
	e.PPN = ppn // same VPN: refresh (translation unchanged in practice)
	e.Stamp = clock
	return AbsorbRefreshed
}

func (*baseMech) Fill(e *Entry, _ int, asid vm.ASID, _, tag vm.VPN, ppn vm.PPN, clock uint64) {
	*e = Entry{Valid: true, ASID: asid, VPN: tag, PPN: ppn, Stamp: clock, Filled: clock}
}

func (*baseMech) Update(e *Entry, _ int, asid vm.ASID, _ vm.VPN, ppn vm.PPN) bool {
	if e.ASID != asid {
		return false
	}
	e.PPN = ppn
	return true
}

func (*baseMech) Translations(e *Entry, _ int, yield func(vm.ASID, vm.VPN, vm.PPN)) {
	yield(e.ASID, e.VPN, e.PPN)
}

func (*baseMech) RegisterStats(*stats.Registry) {} // nothing: golden shape
func (*baseMech) Fold(Mechanism)                {}
