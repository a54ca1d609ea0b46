package workloads

import (
	"fmt"

	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// The PolyBench linear-algebra kernels. atax, bicg and mvt share the same
// two-phase matrix-vector structure (a row-major sweep producing an
// intermediate vector, then a transposed column sweep), which is why the
// paper reports near-identical behaviour for them. Their L1 TLB locality
// comes from scan residency: a warp issues several consecutive accesses
// inside one page while it walks a row, so the translation hits as long as
// the page survives in the TLB until the scan leaves it. With many TBs per
// SM the combined active-page set exceeds the 64-entry L1 TLB and the scans
// interfere — the thrashing that TB-id partitioning isolates. gemm is the
// tiled matrix multiply whose small, heavily shared tile working set gives
// it a high baseline hit rate.

const f64 = 8 // element size of the double-precision PolyBench kernels
const f32 = 4

// matvecShape parameterizes one two-phase matrix-vector kernel.
type matvecShape struct {
	name      string
	rows      int // M
	cols      int // N (multiple of 512 so rows are whole 4KB pages)
	rowsPerTB int // phase-1 rows per TB (multiple of 8)
	rowBand   int // phase-2 rows per TB (partial sums per column band)
	rowStep   int // phase-2 row stride per modelled access (register blocking)
	hotPeriod int // phase-2 accesses between hot-vector touches
	compute   int // ALU cycles between memory instruction groups
}

// buildMatvec constructs the two-phase kernel over fresh UVM regions.
//
// Phase 1 (tmp = A·x): each TB owns a band of rows; every warp walks its
// rows page by page with four consecutive accesses per page (quarter-page
// strides), touching the matching page of the shared input vector x between
// matrix accesses. The warp-active pages of the TBs resident on an SM are
// what contend for the L1 TLB.
//
// Phase 2 (y = Aᵀ·tmp): each TB owns a column band crossed with a row band;
// advancing down the column jumps a full row of memory per step, so every
// access streams a new matrix page while the tmp vector is the periodic hot
// touch.
func buildMatvec(p Params, sh matvecShape) (*trace.Kernel, *vm.AddressSpace) {
	as := newSpace(p)
	M := roundUp(scaled(sh.rows, p.Scale, 128), 128)
	N := roundUp(scaled(sh.cols, p.Scale, 512), 512)
	A := mustAlloc(as, "A", uint64(M)*uint64(N)*f64)
	x := mustAlloc(as, "x", uint64(N)*f64)
	tmp := mustAlloc(as, "tmp", uint64(M)*f64)
	y := mustAlloc(as, "y", uint64(N)*f64)

	k := &trace.Kernel{Name: sh.name, ThreadsPerTB: 256}
	pagesPerRow := N * f64 >> p.PageShift
	if pagesPerRow < 1 {
		pagesPerRow = 1
	}
	// Scan granularity: one page, or the whole row when a (huge) page
	// exceeds the row.
	scanSpan := int(uint(1)<<p.PageShift) / f64
	if scanSpan > N {
		scanSpan = N
	}
	quarter := scanSpan / 4

	// Phase 1: M/rowsPerTB TBs, 8 warps each, then phase 2:
	// (N/256)x(M/rowBand) TBs, one column per thread within a row band.
	rpt := sh.rowsPerTB
	phase1 := (M + rpt - 1) / rpt
	bands := (M + sh.rowBand - 1) / sh.rowBand
	colBlocks := (N + 255) / 256
	phase1TB := func(a *arena, r0 int) trace.TBTrace {
		warps := make([]trace.WarpTrace, 8)
		for w := range warps {
			for r := r0 + w*rpt/8; r < r0+(w+1)*rpt/8 && r < M; r++ {
				for c := 0; c < pagesPerRow; c++ {
					for q := 0; q < 4; q++ {
						base := r*N + c*scanSpan + q*quarter
						a.add(a.warpReadStride(A, base, f64, 4))
						if q%2 == 1 {
							a.add(a.warpReadStride(x, c*scanSpan+q*quarter, f64, 4))
						}
					}
					a.add(compute(sh.compute))
				}
			}
			// Store this warp's partial tmp results.
			st := r0
			if st+32 > M {
				st = M - 32
			}
			a.add(a.warpRead(tmp, st, f64))
			warps[w] = a.warp()
		}
		return trace.TBTrace{Warps: warps}
	}
	phase2TB := func(a *arena, col0, band int) trace.TBTrace {
		bandEnd := band + sh.rowBand
		if bandEnd > M {
			bandEnd = M
		}
		warps := make([]trace.WarpTrace, 8)
		for w := range warps {
			cw := col0 + w*32
			for r, n := band, 0; r < bandEnd; r, n = r+sh.rowStep, n+1 {
				a.add(a.warpRead(A, r*N+cw, f64))
				if n%sh.hotPeriod == sh.hotPeriod-1 {
					tr := r
					if tr+32 > M {
						tr = M - 32
					}
					a.add(a.warpRead(tmp, tr, f64))
				}
				a.add(compute(sh.compute))
			}
			a.add(a.warpRead(y, cw, f64))
			warps[w] = a.warp()
		}
		return trace.TBTrace{Warps: warps}
	}
	k.TBs = buildTBs(phase1+colBlocks*bands, func(a *arena, tb int) trace.TBTrace {
		if tb < phase1 {
			return phase1TB(a, tb*rpt)
		}
		j := tb - phase1
		return phase2TB(a, j/bands*256, j%bands*sh.rowBand)
	})
	// Phase 2 is a separate kernel launch in PolyBench: it consumes tmp, so
	// it must not start until phase 1 drains.
	k.PhaseStarts = []int{phase1}
	return k, as
}

// BuildATAX models atax: y = Aᵀ(A·x).
func BuildATAX(p Params) (*trace.Kernel, *vm.AddressSpace) {
	return buildMatvec(p, matvecShape{
		name: "atax", rows: 2048, cols: 2048,
		rowsPerTB: 16, rowBand: 512, rowStep: 4, hotPeriod: 4, compute: 26,
	})
}

// BuildBICG models bicg: the two independent matrix-vector products
// (q = A·p, s = Aᵀ·r) of the BiCGStab solver sub-kernel.
func BuildBICG(p Params) (*trace.Kernel, *vm.AddressSpace) {
	return buildMatvec(p, matvecShape{
		name: "bicg", rows: 1792, cols: 2048,
		rowsPerTB: 16, rowBand: 448, rowStep: 4, hotPeriod: 5, compute: 30,
	})
}

// BuildMVT models mvt: x1 += A·y1 and x2 += Aᵀ·y2 over one matrix.
func BuildMVT(p Params) (*trace.Kernel, *vm.AddressSpace) {
	return buildMatvec(p, matvecShape{
		name: "mvt", rows: 2304, cols: 2048,
		rowsPerTB: 16, rowBand: 576, rowStep: 4, hotPeriod: 4, compute: 22,
	})
}

// BuildGEMM models the tiled matrix multiply C = A·B with 16x16-thread tile
// TBs. Rows are short enough that several pack into one page, so a TB's
// working set is a handful of pages reused across the whole K sweep, shared
// with neighbouring TBs along tile rows (A) and globally (B) — the intrinsic
// inter-TB reuse the paper's Observation 2 describes.
func BuildGEMM(p Params) (*trace.Kernel, *vm.AddressSpace) {
	as := newSpace(p)
	dim := roundUp(scaled(256, p.Scale, 64), 64) // M = N = K
	A := mustAlloc(as, "A", uint64(dim)*uint64(dim)*f32)
	B := mustAlloc(as, "B", uint64(dim)*uint64(dim)*f32)
	C := mustAlloc(as, "C", uint64(dim)*uint64(dim)*f32)

	// 512-thread TBs (16 warps) computing a 16x32 tile of C: one warp per
	// tile row. Four TBs run per SM, so each gets a quarter of the L1 TLB
	// under partitioning.
	k := &trace.Kernel{Name: "gemm", ThreadsPerTB: 512}
	tileCols := (dim + 31) / 32
	k.TBs = buildTBs((dim+15)/16*tileCols, func(a *arena, tb int) trace.TBTrace {
		tr, tc := tb/tileCols*16, tb%tileCols*32
		warps := make([]trace.WarpTrace, 16)
		for w := range warps {
			r := tr + w
			for kk := 0; kk < dim; kk += 16 {
				ak := kk
				if ak+32 > dim {
					ak = dim - 32 // keep the 32-lane read inside row r
				}
				a.add(a.warpRead(A, r*dim+ak, f32),
					a.warpRead(B, (kk+w%16)*dim+tc, f32),
					compute(24))
			}
			a.add(a.warpRead(C, r*dim+tc, f32))
			warps[w] = a.warp()
		}
		return trace.TBTrace{Warps: warps}
	})
	return k, as
}

func mustAlloc(as *vm.AddressSpace, name string, bytes uint64) vm.Region {
	r, err := as.Alloc(name, bytes)
	if err != nil {
		panic(fmt.Sprintf("workloads: alloc %s: %v", name, err))
	}
	return r
}
