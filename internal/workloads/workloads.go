package workloads

import (
	"fmt"
	"sort"

	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// Params controls workload construction.
type Params struct {
	// PageShift is the UVM base-page shift (12 for 4KB, 21 for 2MB).
	PageShift uint
	// Seed drives every random choice (the graph structure).
	Seed int64
	// Scale multiplies problem sizes; 1.0 is the experiment scale used by
	// the figure harnesses, tests use smaller values.
	Scale float64
}

// DefaultParams returns the experiment-scale parameters.
func DefaultParams() Params {
	return Params{PageShift: 12, Seed: 1, Scale: 1.0}
}

// BuildFunc constructs a kernel trace and the UVM address space it runs in.
type BuildFunc func(p Params) (*trace.Kernel, *vm.AddressSpace)

// Spec describes one benchmark (one row of Table II).
type Spec struct {
	Name             string
	Suite            string
	Input            string
	PaperFootprintGB float64 // the footprint the paper reports
	Build            BuildFunc
}

// All returns the ten benchmarks in the paper's order.
func All() []Spec {
	return []Spec{
		{"bfs", "Rodinia", "citation", 107.48, BuildBFS},
		{"color", "Pannotia", "citation", 12.89, BuildColor},
		{"mis", "Pannotia", "citation", 8.44, BuildMIS},
		{"nw", "Rodinia", "suite", 0.72, BuildNW},
		{"pagerank", "Pannotia", "citation", 14.70, BuildPageRank},
		{"3dconv", "PolyBench", "suite", 21.32, Build3DConv},
		{"atax", "PolyBench", "suite", 4.51, BuildATAX},
		{"bicg", "PolyBench", "suite", 3.76, BuildBICG},
		{"gemm", "PolyBench", "suite", 18.28, BuildGEMM},
		{"mvt", "PolyBench", "suite", 4.38, BuildMVT},
	}
}

// Names returns the benchmark names in paper order.
func Names() []string {
	specs := All()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// ByName finds a benchmark by name.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// FootprintBytes sums the region sizes of a built address space — our scaled
// analogue of Table II's footprint column.
func FootprintBytes(as *vm.AddressSpace) uint64 {
	var total uint64
	for _, r := range as.Regions() {
		total += r.Bytes
	}
	return total
}

// scaled applies the scale factor with a floor.
func scaled(base int, scale float64, min int) int {
	v := int(float64(base) * scale)
	if v < min {
		v = min
	}
	return v
}

// roundUp rounds n up to a multiple of m.
func roundUp(n, m int) int { return (n + m - 1) / m * m }

// newSpace builds the UVM address space for a benchmark. Frames follow
// fault order, one contiguous range per basic block, which the
// TLB-compression comparator exploits.
func newSpace(p Params) *vm.AddressSpace { return vm.NewAddressSpace(p.PageShift) }

// elemAddr returns the address of element idx (elemSize bytes) in region r.
func elemAddr(r vm.Region, idx, elemSize int) vm.Addr {
	a := r.Base + vm.Addr(uint64(idx)*uint64(elemSize))
	if a >= r.End() {
		panic(fmt.Sprintf("workloads: element %d of %q out of range", idx, r.Name))
	}
	return a
}

// uniquePages counts the distinct pages a kernel touches — used by tests and
// the Table II report.
func uniquePages(k *trace.Kernel, pageShift uint) int {
	seen := make(map[vm.VPN]struct{})
	for _, tb := range k.TBs {
		for _, w := range tb.Warps {
			for _, in := range w.Insts {
				for _, a := range in.Addrs {
					seen[vm.VPN(a>>pageShift)] = struct{}{}
				}
			}
		}
	}
	return len(seen)
}

// UniquePages is the exported counterpart of uniquePages.
func UniquePages(k *trace.Kernel, pageShift uint) int { return uniquePages(k, pageShift) }

// SortedTBSizes returns the per-TB memory-instruction counts, descending —
// a quick imbalance indicator used in tests.
func SortedTBSizes(k *trace.Kernel) []int {
	sizes := make([]int, len(k.TBs))
	for i, tb := range k.TBs {
		n := 0
		for _, w := range tb.Warps {
			for _, in := range w.Insts {
				if in.IsMem() {
					n++
				}
			}
		}
		sizes[i] = n
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}
