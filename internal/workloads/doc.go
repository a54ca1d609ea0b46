// Package workloads models the ten GPU benchmarks of the paper's Table II as
// address-trace generators. Each builder reproduces the kernel's memory
// indexing structure — CSR neighbour walks for the Pannotia/Rodinia graph
// kernels, row/column sweeps for the PolyBench linear-algebra kernels, the
// diagonal wavefront of Needleman-Wunsch, and the plane stencil of 3D
// convolution — over a UVM address space, scaled so the working sets stress
// a 64-entry per-SM L1 TLB the same way the paper's multi-GB inputs do.
//
// Builds are parallel and allocation-light. Each thread block is a pure
// function of its index, so every builder generates its TBs on GOMAXPROCS
// goroutines, and each goroutine carves instruction and lane-address
// slices out of its own large chunks rather than allocating one per
// instruction. The trace is byte-identical at any goroutine count; a digest
// test pins it. Cached shares each build across a process's simulation
// cells.
package workloads
