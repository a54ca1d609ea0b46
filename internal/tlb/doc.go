// Package tlb implements the translation look-aside buffers under study:
//
//   - the conventional address-indexed set-associative TLB (baseline),
//   - the TB-id partitioned L1 TLB of paper Section IV-B (Figure 8), where
//     the hardware TB id — not VPN bits — selects the set and entries store
//     the full VPN,
//   - partitioning plus dynamic adjacent-set sharing (Figure 9), driven by a
//     16-bit sharing-flag register.
//
// The entry format is a separate axis: Options.Mech selects a
// tlbmech.Mechanism, so every index policy composes with every mechanism,
// including "compressed", the PACT'20 comparator of Figure 12.
//
// All variants use true LRU within the probed ways and account the lookup
// latency of probing multiple sets (the partitioning overhead the paper
// explicitly includes in its evaluation).
package tlb
