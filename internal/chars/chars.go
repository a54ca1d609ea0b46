package chars

import (
	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// NumBins is the number of reuse-intensity bins (b1..b5, 20% increments).
const NumBins = 5

// Bins holds the fraction of TBs (intra) or TB pairs (inter) whose reuse
// intensity falls into each 20% bin.
type Bins [NumBins]float64

// binOf maps an intensity in [0,1] to its bin index.
func binOf(r float64) int {
	b := int(r * NumBins)
	if b >= NumBins {
		b = NumBins - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// tbPages summarizes one TB's translation trace: per-page access counts and
// the total access count.
type tbPages struct {
	counts map[vm.VPN]int32
	total  int
}

func summarize(tb trace.TBTrace, pageShift uint) tbPages {
	tr := trace.TBPageTrace(tb, pageShift)
	s := tbPages{counts: make(map[vm.VPN]int32), total: len(tr)}
	for _, p := range tr {
		s.counts[p]++
	}
	return s
}

// IntraTB computes the Figure 4 characterization: for each TB, the fraction
// of its translations that go to pages it accesses at least twice
// (Equation 1 with c1 = c2), binned in 20% steps.
func IntraTB(k *trace.Kernel, pageShift uint) Bins {
	var bins Bins
	if len(k.TBs) == 0 {
		return bins
	}
	for _, tb := range k.TBs {
		s := summarize(tb, pageShift)
		if s.total == 0 {
			bins[0] += 1
			continue
		}
		reused := 0
		for _, c := range s.counts {
			if c >= 2 {
				reused += int(c)
			}
		}
		bins[binOf(float64(reused)/float64(s.total))]++
	}
	for i := range bins {
		bins[i] /= float64(len(k.TBs))
	}
	return bins
}

// InterTB computes the Figure 3 characterization: for every ordered TB pair
// (c1, c2), the fraction of c1's translations to pages that c2 also touches
// (Equation 1), binned in 20% steps. maxTBs bounds the pair count for very
// large grids (0 means all TBs); the paper's grids are small enough to be
// exhaustive, ours are sampled from the front of the grid, which round-robin
// dispatch spreads across all SMs.
func InterTB(k *trace.Kernel, pageShift uint, maxTBs int) Bins {
	var bins Bins
	n := len(k.TBs)
	if maxTBs > 0 && n > maxTBs {
		n = maxTBs
	}
	if n < 2 {
		return bins
	}
	sums := make([]tbPages, n)
	for i := 0; i < n; i++ {
		sums[i] = summarize(k.TBs[i], pageShift)
	}
	pairs := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			pairs++
			if sums[i].total == 0 {
				bins[0]++
				continue
			}
			shared := 0
			// Iterate the smaller page set.
			a, b := sums[i], sums[j]
			if len(a.counts) <= len(b.counts) {
				for p, c := range a.counts {
					if _, ok := b.counts[p]; ok {
						shared += int(c)
					}
				}
			} else {
				for p := range b.counts {
					if c, ok := a.counts[p]; ok {
						shared += int(c)
					}
				}
			}
			bins[binOf(float64(shared)/float64(a.total))]++
		}
	}
	for i := range bins {
		bins[i] /= float64(pairs)
	}
	return bins
}

// MinDistanceLog2 is the first reported distance bucket (2^3), matching the
// paper's Figure 5/6 x-axis.
const MinDistanceLog2 = 3

// MaxDistanceLog2 is the last bucket; larger distances saturate into it.
const MaxDistanceLog2 = 20

// DistanceCDF is a cumulative distribution of reuse distances over power-of-
// two buckets: CDF[i] is the fraction of reuses with distance <= 2^(3+i).
type DistanceCDF struct {
	CDF    []float64 // len MaxDistanceLog2-MinDistanceLog2+1
	Reuses int64     // number of reuse events measured (cold accesses excluded)
}

// FractionWithin returns the fraction of reuses with distance <= 2^log2.
func (d DistanceCDF) FractionWithin(log2 int) float64 {
	if len(d.CDF) == 0 {
		return 0
	}
	i := log2 - MinDistanceLog2
	if i < 0 {
		return 0
	}
	if i >= len(d.CDF) {
		i = len(d.CDF) - 1
	}
	return d.CDF[i]
}

// histogram accumulates distances into log2 buckets.
type histogram struct {
	buckets [MaxDistanceLog2 - MinDistanceLog2 + 1]int64
	total   int64
}

func (h *histogram) add(d int64) {
	h.total++
	for i := range h.buckets {
		if d <= 1<<uint(MinDistanceLog2+i) {
			h.buckets[i]++
			return
		}
	}
	h.buckets[len(h.buckets)-1]++
}

func (h *histogram) cdf() DistanceCDF {
	out := DistanceCDF{CDF: make([]float64, len(h.buckets)), Reuses: h.total}
	if h.total == 0 {
		return out
	}
	var cum int64
	for i, b := range h.buckets {
		cum += b
		out.CDF[i] = float64(cum) / float64(h.total)
	}
	return out
}

// fenwick is a binary indexed tree over stream positions.
type fenwick struct {
	tree []int32
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int32, n+1)} }

func (f *fenwick) add(i int, v int32) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += v
	}
}

// prefix returns the sum of positions [0, i].
func (f *fenwick) prefix(i int) int32 {
	var s int32
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// distanceScanner measures reuse distances over one access stream. Each
// stream position is marked in the Fenwick tree while it is the most recent
// access of its page, so the number of distinct pages between two positions
// is a range sum.
type distanceScanner struct {
	bit        *fenwick
	lastGlobal map[vm.VPN]int
	pos        int
}

func newDistanceScanner(streamLen int) *distanceScanner {
	return &distanceScanner{
		bit:        newFenwick(streamLen),
		lastGlobal: make(map[vm.VPN]int),
	}
}

// access records page p and returns the number of distinct pages strictly
// between this access and prevPos (use the per-stream bookkeeping of the
// caller to supply prevPos; negative means cold).
func (ds *distanceScanner) access(p vm.VPN, prevPos int) (distance int64, pos int) {
	pos = ds.pos
	ds.pos++
	if last, ok := ds.lastGlobal[p]; ok {
		ds.bit.add(last, -1)
	}
	ds.bit.add(pos, 1)
	ds.lastGlobal[p] = pos
	if prevPos < 0 {
		return -1, pos
	}
	// Marks strictly between prevPos and pos: positions (prevPos, pos).
	// The mark for p itself was just moved to pos, so the window counts
	// each distinct page once.
	d := int64(ds.bit.prefix(pos-1) - ds.bit.prefix(prevPos))
	return d, pos
}

// IsolatedReuseDistance computes the Figure 6 CDF: each TB's translation
// stream measured alone (inter-TB interference removed).
func IsolatedReuseDistance(k *trace.Kernel, pageShift uint) DistanceCDF {
	var h histogram
	for _, tb := range k.TBs {
		tr := trace.TBPageTrace(tb, pageShift)
		ds := newDistanceScanner(len(tr))
		last := make(map[vm.VPN]int)
		for _, p := range tr {
			prev := -1
			if lp, ok := last[p]; ok {
				prev = lp
			}
			d, pos := ds.access(p, prev)
			last[p] = pos
			if d >= 0 {
				h.add(d)
			}
		}
	}
	return h.cdf()
}

// InterleavedReuseDistance computes the Figure 5 CDF: TBs are distributed
// round-robin over numSMs SMs with slotsPerSM running concurrently, their
// translation streams interleaved one request at a time; the distance of an
// intra-TB reuse then includes every other resident TB's translations — the
// inter-TB interference of the paper's Observation 2.
func InterleavedReuseDistance(k *trace.Kernel, pageShift uint, numSMs, slotsPerSM int) DistanceCDF {
	if numSMs < 1 {
		numSMs = 1
	}
	if slotsPerSM < 1 {
		slotsPerSM = 1
	}
	// Assign TBs to SMs round-robin, as the baseline dispatcher does.
	perSM := make([][]int, numSMs)
	for i := range k.TBs {
		sm := i % numSMs
		perSM[sm] = append(perSM[sm], i)
	}

	var h histogram
	for _, tbIdx := range perSM {
		if len(tbIdx) == 0 {
			continue
		}
		traces := make([][]vm.VPN, len(tbIdx))
		total := 0
		for i, t := range tbIdx {
			traces[i] = trace.TBPageTrace(k.TBs[t], pageShift)
			total += len(traces[i])
		}
		ds := newDistanceScanner(total)
		type key struct {
			tb int
			p  vm.VPN
		}
		last := make(map[key]int)

		// Run slotsPerSM TBs concurrently, one translation each per round;
		// a finished TB's slot is refilled with the next TB in order.
		next := 0
		active := make([]int, 0, slotsPerSM)
		cursor := make([]int, len(tbIdx))
		for next < len(tbIdx) && len(active) < slotsPerSM {
			active = append(active, next)
			next++
		}
		for len(active) > 0 {
			for i := 0; i < len(active); {
				t := active[i]
				tr := traces[t]
				if cursor[t] >= len(tr) {
					// Slot freed: refill or compact.
					if next < len(tbIdx) {
						active[i] = next
						next++
					} else {
						active = append(active[:i], active[i+1:]...)
					}
					continue
				}
				p := tr[cursor[t]]
				cursor[t]++
				kk := key{t, p}
				prev := -1
				if lp, ok := last[kk]; ok {
					prev = lp
				}
				d, pos := ds.access(p, prev)
				last[kk] = pos
				if d >= 0 {
					h.add(d)
				}
				i++
			}
		}
	}
	return h.cdf()
}

// IntraWarp computes warp-granularity reuse intensity: for every warp, the
// fraction of its translations to pages the warp touches at least twice —
// the characterization the paper's conclusion proposes as future work for
// translation reuse-aware warp scheduling.
func IntraWarp(k *trace.Kernel, pageShift uint) Bins {
	var bins Bins
	warps := 0
	for _, tb := range k.TBs {
		for _, w := range tb.Warps {
			warps++
			counts := make(map[vm.VPN]int32)
			total := 0
			for _, in := range w.Insts {
				if !in.IsMem() {
					continue
				}
				for _, p := range trace.CoalescePages(in.Addrs, pageShift) {
					counts[p]++
					total++
				}
			}
			if total == 0 {
				bins[0]++
				continue
			}
			reused := 0
			for _, c := range counts {
				if c >= 2 {
					reused += int(c)
				}
			}
			bins[binOf(float64(reused)/float64(total))]++
		}
	}
	if warps == 0 {
		return bins
	}
	for i := range bins {
		bins[i] /= float64(warps)
	}
	return bins
}
