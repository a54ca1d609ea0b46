package workloads

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"gputlb/internal/arch"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// TestLineStreamMatchesCoalesce: every memory instruction of every
// benchmark, at 4KB and 2MB pages and seeds 1 and 99, decodes from the
// kernel's line stream to exactly the pages, lines and line-to-page map
// that coalescing its lanes gives — what the simulator read before the
// stream existed.
func TestLineStreamMatchesCoalesce(t *testing.T) {
	const lineShift = 7 // the configs' 128-byte lines
	for _, pageShift := range []uint{12, 21} {
		for _, seed := range []int64{1, 99} {
			p := Params{PageShift: pageShift, Scale: 0.25, Seed: seed}
			for _, s := range All() {
				t.Run(fmt.Sprintf("%s/shift%d/seed%d", s.Name, pageShift, seed), func(t *testing.T) {
					k, _ := s.Build(p)
					ls, err := k.Lines(lineShift)
					if err != nil {
						t.Fatal(err)
					}
					var want, got trace.Coalesced
					n := 0
					for ti, tb := range k.TBs {
						for w, wt := range tb.Warps {
							cur := ls.Warp(ti, w)
							for i, in := range wt.Insts {
								if !in.IsMem() {
									continue
								}
								n++
								want.Coalesce(in.Addrs, pageShift, lineShift)
								cur.Next(&got, pageShift)
								if !slices.Equal(got.Pages, want.Pages) || !slices.Equal(got.Lines, want.Lines) ||
									!slices.Equal(got.LinePage, want.LinePage) {
									t.Fatalf("TB %d warp %d inst %d: stream gives %v %v %v, Coalesce %v %v %v",
										ti, w, i, got.Pages, got.Lines, got.LinePage, want.Pages, want.Lines, want.LinePage)
								}
							}
						}
					}
					if n == 0 {
						t.Fatal("no memory instructions")
					}
				})
			}
		}
	}
}

// TestLaneArraysShared: a repeated strided read or tile access shares
// the first one's lane array, which ends at its capacity like every
// other; a different access, or the same numbers through the other
// generator, gets its own. A memo slot taken over by another access
// still yields the right lanes.
func TestLaneArraysShared(t *testing.T) {
	r := vm.Region{Name: "v", Base: 1 << 30, Bytes: 1 << 24}
	other := vm.Region{Name: "w", Base: 1 << 32, Bytes: 1 << 24}
	var a arena
	same := func(x, y trace.Inst) bool { return unsafe.SliceData(x.Addrs) == unsafe.SliceData(y.Addrs) }
	first := a.warpReadStride(r, 64, 8, 4)
	for _, in := range []trace.Inst{first, a.warpPair(r, 0, 256, 4)} {
		if len(in.Addrs) != arch.WarpSize || cap(in.Addrs) != len(in.Addrs) {
			t.Fatalf("lanes len %d cap %d, want %d and %d", len(in.Addrs), cap(in.Addrs), arch.WarpSize, arch.WarpSize)
		}
	}
	if again := a.warpReadStride(r, 64, 8, 4); !same(first, again) {
		t.Error("a repeated strided read got its own lane array")
	}
	if again, pair := a.warpPair(r, 0, 256, 4), a.warpPair(r, 0, 256, 4); !same(again, pair) {
		t.Error("a repeated tile access got its own lane array")
	}
	for name, in := range map[string]trace.Inst{
		"another base":      a.warpReadStride(r, 65, 8, 4),
		"another stride":    a.warpReadStride(r, 64, 8, 1),
		"another elem size": a.warpReadStride(r, 64, 4, 4),
		"another region":    a.warpReadStride(other, 64, 8, 4),
		"a tile access":     a.warpPair(r, 64, 4, 8),
	} {
		if same(first, in) {
			t.Errorf("%s shares the strided read's lanes", name)
		}
	}
	// Fill every slot with other accesses, then ask again: the lanes must
	// be right whether or not the first array survived.
	for base := 1000; base < 1000+2<<laneMemoBits; base++ {
		a.warpReadStride(r, base, 8, 1)
	}
	again := a.warpReadStride(r, 64, 8, 4)
	for l, addr := range again.Addrs {
		if want := elemAddr(r, 64+4*l, 8); addr != want {
			t.Fatalf("lane %d = %#x, want %#x", l, addr, want)
		}
	}
}

// TestBuiltTracesShareLanes: the dense kernels' repeated accesses share
// storage in a built trace.
func TestBuiltTracesShareLanes(t *testing.T) {
	for _, name := range []string{"atax", "gemm", "3dconv"} {
		s, _ := ByName(name)
		k, _ := s.Build(Params{PageShift: 12, Scale: 0.1, Seed: 1})
		arrays := map[*vm.Addr]bool{}
		insts := 0
		for _, tb := range k.TBs {
			for _, w := range tb.Warps {
				for _, in := range w.Insts {
					if len(in.Addrs) > 0 {
						insts++
						arrays[unsafe.SliceData(in.Addrs)] = true
					}
				}
			}
		}
		if len(arrays) >= insts {
			t.Errorf("%s: %d memory instructions hold %d lane arrays, want fewer", name, insts, len(arrays))
		}
	}
}
