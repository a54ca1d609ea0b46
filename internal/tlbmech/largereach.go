package tlbmech

import (
	"gputlb/internal/stats"
	"gputlb/internal/vm"
)

// ReachPages is the largereach mechanism's aligned window size: one entry
// can cover a contiguous run of up to this many pages.
const ReachPages = 64

// largereachMech implements contiguity-aware large-reach entries: one entry
// covers a contiguous VPN→PPN run [lo, hi) of offsets inside an aligned
// window of ReachPages pages. Inserts whose delta continues an adjacent run
// extend it in place, so with a contiguity-preserving allocator
// (vm.AllocContig) one entry reaches up to ReachPages pages. An entry never
// claims a page whose translation was not actually inserted with the run's
// delta — reach can only reflect contiguity the allocator really provided.
type largereachMech struct {
	// lo/hi are the run bounds (offsets within the window) per entry,
	// indexed by the entry's global index. e.PPN stores the PPN the window
	// base would have under the run's delta (possibly wrapped; only
	// PPN+offset is meaningful).
	lo, hi []uint16

	reach      *stats.Histogram // run length at eviction
	fills      int64
	extensions int64 // inserts that grew an existing run
	reachHits  int64 // hits on entries covering more than one page
	maxReach   int64
}

func newLargereach(sets, assoc int) *largereachMech {
	n := sets * assoc
	return &largereachMech{lo: make([]uint16, n), hi: make([]uint16, n), reach: stats.NewHistogram(0)}
}

func (m *largereachMech) DeadAware() bool { return false }

func (m *largereachMech) Tag(vpn vm.VPN) vm.VPN   { return vpn &^ (ReachPages - 1) }
func (m *largereachMech) Index(vpn vm.VPN) uint64 { return uint64(vpn) / ReachPages }
func (m *largereachMech) Dead(*Entry, int) bool   { return false }

func (m *largereachMech) Lookup(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool) {
	if e.ASID != asid {
		return 0, false
	}
	off := uint16(vpn - e.VPN)
	if off < m.lo[idx] || off >= m.hi[idx] {
		return 0, false
	}
	if m.hi[idx]-m.lo[idx] > 1 {
		m.reachHits++
	}
	return e.PPN + vm.PPN(off), true
}

func (m *largereachMech) Peek(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool) {
	if e.ASID != asid {
		return 0, false
	}
	off := uint16(vpn - e.VPN)
	if off < m.lo[idx] || off >= m.hi[idx] {
		return 0, false
	}
	return e.PPN + vm.PPN(off), true
}

func (m *largereachMech) Absorb(e *Entry, idx int, asid vm.ASID, vpn vm.VPN, ppn vm.PPN, clock uint64) AbsorbResult {
	if e.ASID != asid {
		return AbsorbNo
	}
	off := uint16(vpn - e.VPN)
	if e.PPN+vm.PPN(off) != ppn {
		return AbsorbNo // delta mismatch: another run in this window
	}
	switch {
	case off >= m.lo[idx] && off < m.hi[idx]:
		e.Stamp = clock
		return AbsorbRefreshed
	case off == m.hi[idx]:
		m.hi[idx]++
	case m.lo[idx] > 0 && off == m.lo[idx]-1:
		m.lo[idx]--
	default:
		return AbsorbNo // matching delta but not adjacent: keep runs exact
	}
	m.extensions++
	e.Stamp = clock
	return AbsorbCoalesced
}

func (m *largereachMech) Fill(e *Entry, idx int, asid vm.ASID, vpn, tag vm.VPN, ppn vm.PPN, clock uint64) {
	off := uint16(vpn - tag)
	// Store the window-base PPN under the run's delta; unsigned wraparound
	// is fine because only PPN+offset within the run is ever read.
	*e = Entry{Valid: true, ASID: asid, VPN: tag, PPN: ppn - vm.PPN(off), Stamp: clock, Filled: clock}
	m.lo[idx] = off
	m.hi[idx] = off + 1
	m.fills++
}

func (m *largereachMech) Update(e *Entry, idx int, asid vm.ASID, vpn vm.VPN, ppn vm.PPN) bool {
	if e.ASID != asid {
		return false
	}
	off := uint16(vpn - e.VPN)
	if off < m.lo[idx] || off >= m.hi[idx] {
		return false
	}
	e.PPN = ppn - vm.PPN(off)
	return true
}

func (m *largereachMech) OnEvict(e *Entry, idx int) {
	n := int64(m.hi[idx] - m.lo[idx])
	m.reach.Observe(n)
	if n > m.maxReach {
		m.maxReach = n
	}
}

func (m *largereachMech) Translations(e *Entry, idx int, yield func(vm.ASID, vm.VPN, vm.PPN)) {
	for off := m.lo[idx]; off < m.hi[idx]; off++ {
		yield(e.ASID, e.VPN+vm.VPN(off), e.PPN+vm.PPN(off))
	}
}

func (m *largereachMech) OnFlush() {} // Fill rewrites the run bounds

func (m *largereachMech) RegisterStats(r *stats.Registry) {
	mr := r.Child("mech")
	mr.CounterFunc("fills", func() int64 { return m.fills })
	mr.CounterFunc("extensions", func() int64 { return m.extensions })
	mr.CounterFunc("reach_hits", func() int64 { return m.reachHits })
	mr.GaugeFunc("max_reach", func() float64 { return float64(m.maxReach) })
	mr.AttachHistogram("reach", m.reach)
}

func (m *largereachMech) Fold(src Mechanism) {
	s := src.(*largereachMech)
	m.fills += s.fills
	m.extensions += s.extensions
	m.reachHits += s.reachHits
	if s.maxReach > m.maxReach {
		m.maxReach = s.maxReach
	}
	if err := m.reach.Merge(s.reach); err != nil {
		panic("tlbmech: reach histogram shape mismatch: " + err.Error())
	}
}
