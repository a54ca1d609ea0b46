// Package engine provides the discrete-event core shared by the timing
// simulator: a cycle clock and a deterministic event queue. Events
// scheduled for the same cycle fire in insertion order (or in explicit
// priority order, then insertion order) so simulations are bit-reproducible.
//
// The queue is a calendar queue: a ring of 4,096 one-cycle slots starting
// at the last popped cycle, with a two-level bitmap that finds the next
// non-empty slot in a few word operations. Almost every event the simulator
// schedules lands inside that window — SM ticks one cycle ahead, memory
// completions a few hundred — so Schedule and Pop cost O(1). Events behind
// the window's base or further ahead wait in a small binary heap in the
// same type, and Pop takes whichever head is earlier, so the order is
// exactly (cycle, priority, insertion) wherever an event is stored.
//
// Events are stored by value in a reusable node pool, so scheduling
// allocates nothing beyond amortized growth of the pool and the overflow
// heap — it matters because the simulator schedules one or more events per
// issued warp instruction.
package engine
