// Package tlbmech defines the pluggable translation-mechanism interface the
// TLB levels and the page-walk cache consume, and ships five mechanisms
// behind it.
//
// A Mechanism owns everything entry-format specific about a TLB: how a VPN
// maps to a tag and a set index, what a tag match means, how an insert is
// absorbed into an existing entry, how a fresh entry is filled, which
// entries are preferred eviction victims, and which mechanism-specific
// metrics appear in the stats registry. The TLB itself keeps the
// mechanism-independent machinery — set geometry, TB-slot partitioning,
// adjacent-set sharing, LRU/FIFO/random replacement, and the baseline
// counter set — so every mechanism composes with every index policy.
//
// The five mechanisms:
//
//   - base: the pre-mechanism TLB extracted behind the interface, one
//     (ASID, VPN)→PPN entry. Byte-identical to the historical TLB — the
//     committed golden stats pin this.
//   - subentry: tenants share one tag; each tag carries per-ASID sub-entry
//     frame slots, so co-running tenants whose translations differ only in
//     ASID-local frames stop duplicating tags ("Improving Multi-Instance
//     GPU Efficiency via Sub-Entry Sharing TLB Design").
//   - deadblock: a dead-entry predictor — a table of saturating reuse
//     counters indexed by a VPN/ASID signature — marks entries predicted
//     dead at fill time and early-evicts them in the victim scan ("Dead on
//     Arrival"-style dead-block prediction applied to TLB entries).
//   - largereach: one entry covers a contiguous VPN→PPN run inside an
//     aligned window, fed by the contiguity-preserving frame allocator
//     (internal/vm's AllocContig; Mosaic-style allocate-then-exploit
//     contiguity).
//   - compressed: the PACT'20 TLB-compression comparator of Figure 12. An
//     entry covers an aligned group of GroupPages pages with one VPN→PPN
//     delta and a presence bitmap; the comparator adds
//     CompressedProbeLatency cycles to every L1 TLB probe. Like largereach
//     it coalesces contiguous runs inside an aligned window (PAPERS.md
//     2110.08613), with a small fixed window and no stats of its own.
//
// Every mechanism's parameters are constants of the modelled hardware, not
// options: a Spec names a mechanism and nothing else.
//
// Mechanisms are NOT safe for concurrent use and are never shared: every
// TLB (including each address slice's sub-TLB) builds its own instance, and
// the sliced barrier folds sub-TLB mechanism counters back with Fold.
package tlbmech
