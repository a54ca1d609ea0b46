package tlbmech

import (
	"fmt"
	"slices"

	"gputlb/internal/stats"
	"gputlb/internal/vm"
)

// Entry is the universal TLB entry record every mechanism shares. The
// fixed part stays small on purpose — the probe loop walks whole sets and
// its cache footprint is the hot-path cost — so mechanism-specific payload
// (sub-entry frame slots, group bitmaps, run bounds, dead flags) lives in
// side tables the mechanism indexes by the entry's global index
// (set*assoc+way).
type Entry struct {
	Valid bool
	// ASID is the owning tenant (for subentry: the first filler; sub-slot
	// state decides which tenants can actually hit).
	ASID vm.ASID
	// VPN is the tag: the full VPN, or the aligned group/window base for
	// compressed and large-reach entries.
	VPN vm.VPN
	// PPN is the payload: the PPN of VPN (for group and range entries, of
	// the window base under the entry's delta — possibly wrapped; only
	// PPN+offset is meaningful).
	PPN vm.PPN
	// Stamp is the LRU timestamp, Filled the FIFO insertion timestamp.
	Stamp  uint64
	Filled uint64
}

// AbsorbResult says what Absorb did with an insert that reached an entry
// with a matching tag.
type AbsorbResult int

const (
	// AbsorbNo means the entry could not take the translation (ASID or
	// delta mismatch); the caller keeps scanning and eventually fills a new
	// entry.
	AbsorbNo AbsorbResult = iota
	// AbsorbRefreshed means the translation was already covered; the entry
	// was refreshed in place.
	AbsorbRefreshed
	// AbsorbCoalesced means the entry newly covers one more page (counted
	// in the TLB's Coalesced stat).
	AbsorbCoalesced
)

// Mechanism is one pluggable translation-entry design. All hooks that take
// an *Entry also take the entry's global index idx = set*assoc+way, which
// mechanisms use to address their per-entry side tables (sized by Build
// from the owning TLB's geometry). Callers guarantee the entry's tag
// already matches (e.Valid && e.VPN == Tag(vpn)) before calling Lookup,
// Peek, Absorb, or Update. Mechanisms are single-goroutine, like the TLBs
// that own them.
type Mechanism interface {
	// Tag maps a VPN to the tag an entry holding it carries.
	Tag(vpn vm.VPN) vm.VPN
	// Index maps a VPN to the value whose low bits select the set under
	// address indexing.
	Index(vpn vm.VPN) uint64
	// Lookup probes a tag-matching entry for (asid, vpn), returning the PPN
	// on a hit. It may train predictors / promote the entry; the caller
	// refreshes the LRU stamp on a hit.
	Lookup(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool)
	// Peek is Lookup without any training or statistics side effects
	// (ContainsA/UpdateA probes must not disturb predictor state).
	Peek(e *Entry, idx int, asid vm.ASID, vpn vm.VPN) (vm.PPN, bool)
	// Absorb tries to fold vpn→ppn into a tag-matching entry (refresh,
	// coalesce, extend). clock is the TLB's current probe clock for stamp
	// refreshes.
	Absorb(e *Entry, idx int, asid vm.ASID, vpn vm.VPN, ppn vm.PPN, clock uint64) AbsorbResult
	// Fill overwrites e with a fresh entry for vpn→ppn. tag is Tag(vpn),
	// precomputed by the caller.
	Fill(e *Entry, idx int, asid vm.ASID, vpn, tag vm.VPN, ppn vm.PPN, clock uint64)
	// Update rewrites the payload for (asid, vpn) in a tag-matching entry
	// without touching recency or any counter, reporting whether the entry
	// actually covered the page (placeholder resolution at the sharded
	// engine's barrier).
	Update(e *Entry, idx int, asid vm.ASID, vpn vm.VPN, ppn vm.PPN) bool
	// DeadAware reports whether the victim scan should ask Dead at all; it
	// is constant for a mechanism's lifetime, letting the base path skip
	// the scan entirely.
	DeadAware() bool
	// Dead reports whether a valid entry is predicted dead and should be
	// evicted before the replacement policy picks among live entries.
	Dead(e *Entry, idx int) bool
	// OnEvict notifies the mechanism a valid entry is being evicted
	// (predictor training, run-length accounting), before the entry is
	// reused.
	OnEvict(e *Entry, idx int)
	// Translations enumerates every (asid, vpn, ppn) translation a valid
	// entry currently holds — one per covered page (victim write-back and
	// diagnostics).
	Translations(e *Entry, idx int, yield func(asid vm.ASID, vpn vm.VPN, ppn vm.PPN))
	// OnFlush resets per-entry side state after the TLB invalidates all
	// entries.
	OnFlush()
	// RegisterStats registers mechanism-specific metrics under r (the
	// TLB's own registry node). base registers nothing, keeping base
	// snapshots byte-identical to the pre-mechanism TLB.
	RegisterStats(r *stats.Registry)
	// Fold adds src's mechanism-level counters into this mechanism — the
	// sliced barrier's sub-TLB roll-up. src must be the same kind.
	Fold(src Mechanism)
}

// Spec selects a mechanism by name. The zero value is the base mechanism.
type Spec struct {
	// Kind is the mechanism name: "" or one of Known().
	Kind string
}

// ProbeLatency is the fixed number of cycles the mechanism adds to every
// L1 TLB probe: CompressedProbeLatency for the compressed comparator, zero
// for the others.
func (s Spec) ProbeLatency() int {
	if s.Kind == "compressed" {
		return CompressedProbeLatency
	}
	return 0
}

// Known returns the recognized mechanism names, in grid order.
func Known() []string {
	return []string{"base", "subentry", "deadblock", "largereach", "compressed"}
}

// ParseSpec maps a mechanism name ("" means base) to its Spec, rejecting
// unknown names — the validation entry point for configs and job specs.
func ParseSpec(name string) (Spec, error) {
	if name == "" {
		name = "base"
	}
	if !slices.Contains(Known(), name) {
		return Spec{}, fmt.Errorf("tlbmech: unknown mechanism %q (one of %v)", name, Known())
	}
	return Spec{Kind: name}, nil
}

// Build constructs the mechanism a Spec names, with per-entry side tables
// sized for a TLB of sets×assoc entries.
func Build(s Spec, sets, assoc int) (Mechanism, error) {
	switch s.Kind {
	case "", "base":
		return &baseMech{}, nil
	case "subentry":
		return newSubentry(sets, assoc), nil
	case "deadblock":
		return newDeadblock(sets, assoc), nil
	case "largereach":
		return newLargereach(sets, assoc), nil
	case "compressed":
		return newCompressed(sets, assoc), nil
	}
	return nil, fmt.Errorf("tlbmech: unknown mechanism %q (one of %v)", s.Kind, Known())
}
