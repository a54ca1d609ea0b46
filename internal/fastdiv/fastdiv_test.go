package fastdiv_test

import (
	"math"
	"math/rand"
	"testing"

	"gputlb/internal/experiments"
	"gputlb/internal/fastdiv"
)

// namedDivisors lists every divisor the named machine configs give the
// simulator's divided paths: L1 and L2 cache sets (the L2 also split into
// 2, 4 and 8 address slices), memory partitions, L2 TLB ports, DRAM banks
// and lines per DRAM row.
func namedDivisors(t *testing.T) map[uint64]bool {
	t.Helper()
	out := map[uint64]bool{}
	for _, name := range experiments.ConfigNames() {
		cfg, err := experiments.CellSpec{Bench: "atax", Config: name}.Machine()
		if err != nil {
			t.Fatalf("config %q: %v", name, err)
		}
		for _, d := range []int{
			cfg.L1Cache.Sets(), cfg.L2Cache.Sets(),
			cfg.L2Cache.Sets() / 2, cfg.L2Cache.Sets() / 4, cfg.L2Cache.Sets() / 8,
			cfg.MemPartitions, cfg.L2TLBPorts, cfg.DRAMBanksPerPart,
			cfg.DRAMRowBytes / cfg.L1Cache.LineBytes,
		} {
			if d > 0 {
				out[uint64(d)] = true
			}
		}
	}
	return out
}

// Div, Mod and DivMod equal / and % for random dividends and the edges of
// the multiply's range, for every divisor the named configs produce and
// for divisors around and above 2^32.
func TestMatchesHardwareDivide(t *testing.T) {
	divs := namedDivisors(t)
	for _, d := range []uint64{8, 12, 16, 32, 192, 1536} { // the baseline machine's
		if !divs[d] {
			t.Errorf("the named configs give no divisor %d", d)
		}
	}
	for _, d := range []uint64{1, 2, 3, 7, 1 << 31, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 63, math.MaxUint64} {
		divs[d] = true
	}
	rng := rand.New(rand.NewSource(1))
	xs := []uint64{0, 1, 1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, math.MaxUint64 - 1, math.MaxUint64}
	for range 2000 {
		xs = append(xs, rng.Uint64(), rng.Uint64()>>32, uint64(rng.Uint32()))
	}
	for d := range divs {
		v := fastdiv.New(d)
		for _, x := range xs {
			q, r := v.DivMod(x)
			if v.Div(x) != x/d || v.Mod(x) != x%d || q != x/d || r != x%d {
				t.Fatalf("%d by %d: Div %d Mod %d DivMod (%d, %d), want %d %d",
					x, d, v.Div(x), v.Mod(x), q, r, x/d, x%d)
			}
		}
		// Every dividend near each multiple of d below 2^32 is a boundary
		// of the quotient; sample a stretch of them.
		for k := uint64(0); k < 64 && k*d < 1<<32; k++ {
			for _, x := range []uint64{k*d - 1, k * d, k*d + 1} {
				if x>>32 == 0 && (v.Div(x) != x/d || v.Mod(x) != x%d) {
					t.Fatalf("%d by %d: Div %d Mod %d, want %d %d", x, d, v.Div(x), v.Mod(x), x/d, x%d)
				}
			}
		}
	}
}

func TestNewZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	fastdiv.New(0)
}
