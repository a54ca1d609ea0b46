// Package control implements the closed-loop online partitioning
// controller of the multi-tenant simulator: an epoch-driven feedback loop
// that samples per-tenant translation metrics at the simulator's epoch
// barrier and repartitions the machine — L2 TLB set ownership and SM
// assignment — to maximize a configurable objective (weighted speedup,
// fairness, or max-min progress).
//
// The package is deliberately a leaf: it knows nothing about the simulator,
// the TLB, or the scheduler. The simulator feeds it Samples (plain counter
// snapshots per machine slot) and applies the Assignment it returns. Two
// kinds of decisions exist, matching what is deterministic at each trigger:
//
//   - Periodic decisions (ReasonEpoch) fire at fixed cycle multiples, where
//     the sharded engine has every shard paused at the exact tick cycle, so
//     counter deltas are bit-identical across worker counts and epoch
//     lengths. Only these run the hill-climbing step.
//   - Churn decisions (ReasonArrival, ReasonDeparture) fire mid-epoch,
//     where counters are not barrier-stable; they therefore ignore the
//     sample counters entirely and perform only the rebalance step, which
//     is a pure function of the active-slot set: redistribute the whole
//     machine equally over the active slots.
//
// Hill-climbing moves at most one set chunk (L2Sets/(4*Slots) sets) and
// one SM per decision, requires the receiver's pressure to exceed the
// donor's by 10% (hysteresis), and then rests for one periodic decision,
// so the partition cannot oscillate. These are constants; Config sets
// only the decision period, the objective and Frozen. A Frozen controller
// never changes the initial assignment — the degenerate case that must
// reproduce the static-partition numbers exactly.
package control
