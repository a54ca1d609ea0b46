// Package simtest is a reusable determinism harness for the simulator's
// execution engines.
//
// The sharded epoch-barrier engine's central promise is that its results
// are a pure function of the simulated configuration and its L2 slice
// count: the epoch length, the cells that run beside it on other sweep
// workers, and GOMAXPROCS never change what the simulation computes. simtest
// turns that promise into a mechanical check. A Build function constructs a
// fresh simulator for one trial; the harness runs it across a matrix of
// epoch lengths, or alone and beside concurrent copies of itself, and diffs
// the full stats-registry snapshots — and optionally the complete trace
// event streams — byte for byte. That the order of the engine's per-shard
// and per-slice passes is invisible too is checked inside package sim,
// which can reorder them.
//
// The harness is deliberately engine-agnostic: any code that can hand back
// a *sim.Simulator (solo kernels, multi-tenant co-runs, custom configs) can
// be matrixed. Package-level tests cover the stock configurations: the solo
// scheduler variants, the translation mechanisms, and every multi-tenant L2
// TLB mode crossed with every SM assignment policy.
package simtest
