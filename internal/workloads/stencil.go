package workloads

import (
	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// Build3DConv models the PolyBench 3D convolution: each TB owns a 16-row
// y-slab crossed with an 8-plane z-chunk and marches along z, reading the
// z-1, z and z+1 plane slabs and writing the output slab. A plane slab's
// pages are re-read at three consecutive z steps, giving short intra-TB
// reuse distances; different TBs own disjoint slabs and share only the halo
// planes between adjacent z-chunks, so inter-TB reuse is minimal (paper
// bin b1).
func Build3DConv(p Params) (*trace.Kernel, *vm.AddressSpace) {
	as := newSpace(p)
	nx, ny := 128, 128
	nz := roundUp(scaled(128, p.Scale, 16), 16)
	in := mustAlloc(as, "in", uint64(nx)*uint64(ny)*uint64(nz)*f32)
	out := mustAlloc(as, "out", uint64(nx)*uint64(ny)*uint64(nz)*f32)

	k := &trace.Kernel{Name: "3dconv", ThreadsPerTB: 256}
	plane := nx * ny
	slabs := (ny + 15) / 16
	k.TBs = buildTBs((nz+7)/8*slabs, func(a *arena, tb int) trace.TBTrace {
		zc, ys := tb/slabs*8, tb%slabs*16
		warps := make([]trace.WarpTrace, 8)
		for w := range warps {
			y0, y1 := ys+2*w, ys+2*w+1
			zEnd := zc + 8
			if zEnd > nz-1 {
				zEnd = nz - 1
			}
			for z := zc + 1; z < zEnd; z++ {
				for dz := -1; dz <= 1; dz++ {
					base0 := (z+dz)*plane + y0*nx
					base1 := (z+dz)*plane + y1*nx
					a.add(a.warpPair(in, base0, base1, f32))
				}
				a.add(compute(70), a.warpPair(out, z*plane+y0*nx, z*plane+y1*nx, f32))
			}
			warps[w] = a.warp()
		}
		return trace.TBTrace{Warps: warps}
	})
	return k, as
}

// BuildNW models Rodinia's Needleman-Wunsch: 16x16 blocks of the score
// matrix processed in diagonal wavefront order. Rows of the scaled matrix
// span pages, so each block touches a fresh set of score and reference
// pages (the cold misses behind nw's very low hit rate), while the
// left-boundary column page is the block's small hot set. The per-cell
// dynamic-programming max makes the kernel compute-bound, which is why the
// paper's improved hit rate does not translate into speedup for nw.
func BuildNW(p Params) (*trace.Kernel, *vm.AddressSpace) {
	as := newSpace(p)
	n := roundUp(scaled(2048, p.Scale, 512), 512)
	score := mustAlloc(as, "score", uint64(n)*uint64(n)*f32)
	ref := mustAlloc(as, "ref", uint64(n)*uint64(n)*f32)

	const bs = 32 // block side
	k := &trace.Kernel{Name: "nw", ThreadsPerTB: 256}
	blocks := n / bs
	pagesPerRow := n * f32 >> p.PageShift
	if pagesPerRow < 1 {
		pagesPerRow = 1
	}
	// pal is the palindromic sweep the DP anti-diagonals induce over the
	// upper half of the block: the same eight score-row pages are revisited
	// back and forth, so the hits a TB can get scale with the TLB entries
	// it actually holds — exactly one TB partition's worth.
	pal := []int{0, 1, 2, 3, 4, 5, 6, 7, 6, 3}
	// Wavefront order: anti-diagonal d holds blocks (bi, d-bi); every
	// fourth diagonal is modelled (the DP dependency serializes diagonals
	// anyway). The lower half of the block streams cyclically — the cold
	// misses the paper attributes to nw.
	type block struct{ bi, bj int }
	var order []block
	for d := 0; d < 2*blocks-1; d += 4 {
		for bi := 0; bi < blocks; bi++ {
			if bj := d - bi; bj >= 0 && bj < blocks {
				order = append(order, block{bi, bj})
			}
		}
	}
	k.TBs = buildTBs(len(order), func(a *arena, tb int) trace.TBTrace {
		bi := order[tb].bi
		col := order[tb].bj * bs
		if col+32 > n {
			col = n - 32
		}
		warps := make([]trace.WarpTrace, 8)
		for w := range warps {
			for s := 0; s < len(pal); s++ {
				hot := bi*bs + pal[(s+w)%len(pal)]*2
				// The reference block streams: each warp-step reads a
				// (near-)unique reference page, the cold misses that
				// dominate nw and put its intra-TB reuse intensity in the
				// paper's b2/b3 bins.
				idx := w*len(pal) + s // unique per (warp, step) in the TB
				coldRow := bi*bs + idx%40
				if coldRow >= n {
					coldRow = n - 1
				}
				coldCol := col
				if (idx/40)%2 == 1 {
					coldCol = (col + n/2) % n
				}
				if coldCol+32 > n {
					coldCol = n - 32
				}
				a.add(a.warpRead(score, hot*n+col, f32),
					a.warpRead(ref, coldRow*n+coldCol, f32),
					compute(140))
			}
			warps[w] = a.warp()
		}
		return trace.TBTrace{Warps: warps}
	})
	return k, as
}
