package workloads

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gputlb/internal/arch"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// Trace builds are allocation-bound if every memory instruction gets its own
// lane slice, and serial if thread blocks are generated one after another.
// Every generator instead builds its TBs through buildTBs: each TB is a pure
// function of its index, so TBs are built on GOMAXPROCS goroutines, each
// carving its instructions and lane addresses out of its own arena's
// chunks. Which goroutine builds a TB, and which chunk its slices live in,
// never shows in the trace.

// Chunk lengths: large enough that allocations are rare, small enough
// that the unused tail each goroutine leaves behind does not matter.
const (
	laneChunk = 4096 // addresses, 32 KB
	instChunk = 1024 // instructions, 32 KB
)

// arena hands out one goroutine's trace slices. Every slice it returns has
// cap == len, so no append through one instruction or warp can reach a
// neighbour's storage. warpInsts collects the instructions of the warp
// being built until warp() copies them out.
type arena struct {
	lanes     []vm.Addr
	insts     []trace.Inst
	warpInsts []trace.Inst
}

// carve returns the first n elements of *chunk as a full slice, first
// replacing *chunk with a fresh one of size elements (or n, if larger)
// when it is too short.
func carve[T any](chunk *[]T, size, n int) []T {
	if *chunk == nil || len(*chunk) < n {
		*chunk = make([]T, max(size, n))
	}
	s := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return s
}

// laneSlice returns n lane-address slots.
func (a *arena) laneSlice(n int) []vm.Addr {
	return carve(&a.lanes, laneChunk, n)
}

// add appends instructions to the warp being built.
func (a *arena) add(ins ...trace.Inst) { a.warpInsts = append(a.warpInsts, ins...) }

// warp returns the warp built since the last call and starts a new one.
func (a *arena) warp() trace.WarpTrace {
	insts := carve(&a.insts, instChunk, len(a.warpInsts))
	copy(insts, a.warpInsts)
	a.warpInsts = a.warpInsts[:0]
	return trace.WarpTrace{Insts: insts}
}

// warpRead builds a coalesced warp access: the 32 lanes read consecutive
// elements of r starting at element base.
func (a *arena) warpRead(r vm.Region, base, elemSize int) trace.Inst {
	return a.warpReadStride(r, base, elemSize, 1)
}

// warpReadStride builds a warp access whose 32 lanes read elements
// base, base+stride, ... — a register-blocked sequential scan where each
// lane covers `stride` consecutive elements.
func (a *arena) warpReadStride(r vm.Region, base, elemSize, stride int) trace.Inst {
	addrs := a.laneSlice(arch.WarpSize)
	for l := range addrs {
		addrs[l] = elemAddr(r, base+l*stride, elemSize)
	}
	return trace.Inst{Addrs: addrs}
}

// warpGather builds a scattered warp access: lane l reads element idx[l].
// len(idx) may be below WarpSize (inactive lanes are simply absent).
func (a *arena) warpGather(r vm.Region, idx []int32, elemSize int) trace.Inst {
	addrs := a.laneSlice(len(idx))
	for l, i := range idx {
		addrs[l] = elemAddr(r, int(i), elemSize)
	}
	return trace.Inst{Addrs: addrs}
}

// warpPair builds a 32-lane access covering two 16-element row segments
// (lanes 0-15 from base0, lanes 16-31 from base1) — the canonical 2x16 tile
// access of a 256-thread GEMM tile warp.
func (a *arena) warpPair(r vm.Region, base0, base1, elemSize int) trace.Inst {
	addrs := a.laneSlice(arch.WarpSize)
	for l := 0; l < 16; l++ {
		addrs[l] = elemAddr(r, base0+l, elemSize)
		addrs[16+l] = elemAddr(r, base1+l, elemSize)
	}
	return trace.Inst{Addrs: addrs}
}

// compute models n cycles of ALU work.
func compute(n int) trace.Inst { return trace.Inst{Compute: n} }

// buildTBs returns n thread blocks, TB i being body(a, i) with ID i. body
// must be a pure function of i (a is the calling goroutine's arena), so
// the result does not depend on the goroutine count. A panic in any body
// is re-raised in the caller once every goroutine has stopped.
func buildTBs(n int, body func(a *arena, i int) trace.TBTrace) []trace.TBTrace {
	tbs := make([]trace.TBTrace, n)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicOne sync.Once
		panicVal any
	)
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicOne.Do(func() { panicVal = v })
					next.Store(int64(n)) // stop the other goroutines early
				}
			}()
			var a arena
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				tbs[i] = body(&a, i)
				tbs[i].ID = i
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return tbs
}
