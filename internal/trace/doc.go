// Package trace represents GPU kernels as per-warp instruction streams and
// implements the memory coalescing unit. A kernel is a grid of thread blocks
// (TBs); each TB holds warps of 32 threads; each warp executes a sequence of
// instructions that are either compute delays or memory accesses carrying one
// address per active lane. The coalescer merges a warp's 32 lane addresses
// into unique cache-line requests and unique page-translation requests —
// exactly the stream the L1 TLB sees (step 1 of the paper's Figure 1). A
// kernel's line stream (Kernel.Lines) holds every instruction of each
// warp in order, compactly encoded: a compute instruction's latency, or a
// memory instruction's coalesced lines, coalesced once. The simulator
// reads it instead of the instructions.
package trace
