package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/tlbmech"
	"gputlb/internal/vm"
)

// mechTLB builds an address-indexed TLB running the named mechanism.
func mechTLB(kind string) *TLB {
	return New(l1cfg(), Options{Policy: arch.IndexByAddress, Mech: tlbmech.Spec{Kind: kind}})
}

// driveMixed runs a deterministic mixed op sequence (inserts, lookups,
// updates, flushes) over multiple ASIDs and slots.
func driveMixed(tl *TLB, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4000; i++ {
		asid := vm.ASID(rng.Intn(3))
		slot := rng.Intn(2)
		vpn := vm.VPN(rng.Intn(512))
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			tl.InsertA(asid, slot, vpn, vm.PPN(uint64(asid)*100000+uint64(vpn)+1))
		case 9:
			if i%1000 == 999 {
				tl.Flush()
			}
		default:
			tl.LookupA(asid, slot, vpn)
		}
	}
}

// TestMechBaseEquivalent: an explicit Mech "base" TLB behaves identically to
// the zero-value Options TLB — same counters over the same op stream, in
// every index policy — and the compressed mechanism's counters on that
// stream are pinned to those of the compression mode it replaced.
func TestMechBaseEquivalent(t *testing.T) {
	variants := []struct {
		name string
		opt  Options
		want *Stats // pinned counters; nil compares against explicit base
	}{
		{"address", Options{Policy: arch.IndexByAddress}, nil},
		{"partitioned", Options{Policy: arch.IndexByTB}, nil},
		{"shared", Options{Policy: arch.IndexByTBShared, Sharing: arch.ShareAdjacent}, nil},
		{"compressed", Options{Policy: arch.IndexByAddress, Mech: tlbmech.Spec{Kind: "compressed"}},
			&Stats{Accesses: 1951, Hits: 108, Misses: 1843, ProbeSets: 1951, Evictions: 981, Coalesced: 432}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			implicit := New(l1cfg(), v.opt)
			implicit.ConfigureSlots(2)
			driveMixed(implicit, 7)
			want := v.want
			if want == nil {
				explicitOpt := v.opt
				explicitOpt.Mech = tlbmech.Spec{Kind: "base"}
				explicit := New(l1cfg(), explicitOpt)
				explicit.ConfigureSlots(2)
				driveMixed(explicit, 7)
				s := explicit.Stats()
				want = &s
			}
			if implicit.Stats() != *want {
				t.Errorf("stats diverged:\ngot  %+v\nwant %+v", implicit.Stats(), *want)
			}
		})
	}
}

// TestSubentryNoCrossASIDLeak: under sub-entry sharing, a tenant's hit must
// always return the PPN that tenant inserted — never another tenant's frame
// under the shared tag — in every index policy, including after evictions,
// spills, and flushes.
func TestSubentryNoCrossASIDLeak(t *testing.T) {
	// want is the ground truth: the frame each tenant last inserted per VPN.
	frame := func(asid vm.ASID, vpn vm.VPN) vm.PPN {
		return vm.PPN(uint64(asid)<<32 | uint64(vpn) | 1)
	}
	variants := []Options{
		{Policy: arch.IndexByAddress, Mech: tlbmech.Spec{Kind: "subentry"}},
		{Policy: arch.IndexByTB, Mech: tlbmech.Spec{Kind: "subentry"}},
		{Policy: arch.IndexByTBShared, Sharing: arch.ShareAdjacent, Mech: tlbmech.Spec{Kind: "subentry"}},
	}
	for vi, opt := range variants {
		t.Run(fmt.Sprint(opt.Policy), func(t *testing.T) {
			tl := New(l1cfg(), opt)
			tl.ConfigureSlots(4)
			rng := rand.New(rand.NewSource(int64(vi) + 1))
			for i := 0; i < 20000; i++ {
				asid := vm.ASID(rng.Intn(4))
				slot := int(asid)
				vpn := vm.VPN(rng.Intn(256))
				if rng.Intn(3) == 0 {
					tl.InsertA(asid, slot, vpn, frame(asid, vpn))
					continue
				}
				if ppn, hit, _ := tl.LookupA(asid, slot, vpn); hit && ppn != frame(asid, vpn) {
					t.Fatalf("op %d: tenant %d vpn %d hit frame %#x, want its own %#x",
						i, asid, vpn, uint64(ppn), uint64(frame(asid, vpn)))
				}
			}
			// Every translation still held must belong to the tenant that
			// inserted it.
			tl.Translations(func(asid vm.ASID, vpn vm.VPN, ppn vm.PPN) {
				if ppn != frame(asid, vpn) {
					t.Errorf("held translation (%d, %d) -> %#x, want %#x",
						asid, vpn, uint64(ppn), uint64(frame(asid, vpn)))
				}
			})
		})
	}
}

// largereachCheck demand-pages an address space in randomized order, mirrors
// every resolved translation into a largereach TLB (as the simulator's fill
// path does), and asserts the invariant: every (asid, vpn, ppn) the TLB
// holds matches the page table exactly — an entry's reach never exceeds the
// contiguity the allocator really provided.
func largereachCheck(t *testing.T, as *vm.AddressSpace, seed int64) {
	t.Helper()
	tl := New(l1cfg(), Options{Policy: arch.IndexByAddress, Mech: tlbmech.Spec{Kind: "largereach"}})
	pt := as.PageTable()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 20000; i++ {
		a := vm.Addr(rng.Intn(1<<22)) + vm.Addr(rng.Intn(4))<<21 // within the first regions
		ppn, _ := as.Touch(a)
		tl.InsertA(0, 0, as.VPNOf(a), ppn)
		if rng.Intn(4) == 0 {
			tl.LookupA(0, 0, as.VPNOf(vm.Addr(rng.Intn(1<<23))))
		}
	}
	held := 0
	tl.Translations(func(asid vm.ASID, vpn vm.VPN, ppn vm.PPN) {
		held++
		want, ok := pt.Translate(vpn)
		if !ok {
			t.Errorf("TLB holds unmapped vpn %d", vpn)
			return
		}
		if ppn != want {
			t.Errorf("TLB holds vpn %d -> %d, page table says %d", vpn, ppn, want)
		}
	})
	if held == 0 {
		t.Fatal("TLB held no translations after 20000 inserts")
	}
}

// TestLargereachMatchesPageTableContig: the contiguity invariant under the
// allocator largereach is designed for.
func TestLargereachMatchesPageTableContig(t *testing.T) {
	as := vm.NewAddressSpace(12)
	if err := as.SetAllocMode(vm.AllocContig); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Alloc("a", 1<<23); err != nil {
		t.Fatal(err)
	}
	largereachCheck(t, as, 11)
}

// TestLargereachMatchesPageTableScattered: under first-touch allocation the
// random touch order backs virtually adjacent basic blocks with frames far
// apart, so runs stay short, but the invariant must still hold — reach
// reflects only real contiguity, whatever the allocator does.
func TestLargereachMatchesPageTableScattered(t *testing.T) {
	as := vm.NewAddressSpace(12)
	if _, err := as.Alloc("a", 1<<23); err != nil {
		t.Fatal(err)
	}
	largereachCheck(t, as, 13)

	// The space must really be fragmented: count virtually adjacent mapped
	// basic blocks whose frames are not adjacent.
	pt := as.PageTable()
	broken, pairs := 0, 0
	for b := vm.VPN(0); b < 4<<(21-12); b += vm.BasicBlockPages {
		p, ok := pt.Translate(b)
		q, okNext := pt.Translate(b + vm.BasicBlockPages)
		if !ok || !okNext {
			continue
		}
		pairs++
		if q != p+vm.BasicBlockPages {
			broken++
		}
	}
	if broken == 0 {
		t.Fatalf("all %d virtually adjacent block pairs are physically adjacent: the space is not fragmented", pairs)
	}
}

// mechProbeTLB builds a warmed TLB for the probe benchmarks.
func mechProbeTLB(kind string, cfg arch.TLBConfig) *TLB {
	tl := New(cfg, Options{Policy: arch.IndexByAddress, Mech: tlbmech.Spec{Kind: kind}})
	for i := 0; i < 256; i++ {
		tl.InsertA(vm.ASID(i%2), 0, vm.VPN(i*3), vm.PPN(i*3+1))
	}
	return tl
}

// TestMechProbeZeroAlloc pins the allocation-free lookup hot path for every
// mechanism: side tables are sized at Attach, so steady-state probes must
// never allocate. It probes two geometries: the L1 TLB, and one address
// slice of the default L2 TLB (a quarter of its entries, at its
// associativity), which is what each per-slice barrier pass probes.
func TestMechProbeZeroAlloc(t *testing.T) {
	l2slice := arch.Default().L2TLB
	l2slice.Entries /= 4
	for _, kind := range tlbmech.Known() {
		t.Run(kind, func(t *testing.T) {
			for _, cfg := range []arch.TLBConfig{l1cfg(), l2slice} {
				tl := mechProbeTLB(kind, cfg)
				allocs := testing.AllocsPerRun(100, func() {
					for i := 0; i < 256; i++ {
						tl.LookupA(vm.ASID(i%2), 0, vm.VPN(i*3))
						tl.InsertA(vm.ASID(i%2), 0, vm.VPN(i*5), vm.PPN(i*5+1))
					}
				})
				if allocs != 0 {
					t.Errorf("%s probe (%d entries, %d-way) allocated %.1f times per run, want 0",
						kind, cfg.Entries, cfg.Assoc, allocs)
				}
			}
		})
	}
}

// BenchmarkMechProbe measures the per-lookup cost of each mechanism on a
// warmed address-indexed TLB (mixed hits and misses).
func BenchmarkMechProbe(b *testing.B) {
	for _, kind := range tlbmech.Known() {
		b.Run(kind, func(b *testing.B) {
			tl := mechProbeTLB(kind, l1cfg())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tl.LookupA(vm.ASID(i&1), 0, vm.VPN(i%1024))
			}
		})
	}
}
