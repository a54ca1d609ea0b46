package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gputlb/internal/arch"
	"gputlb/internal/tlbmech"
	"gputlb/internal/vm"
)

func l1cfg() arch.TLBConfig { return arch.TLBConfig{Entries: 64, Assoc: 4, LookupLatency: 1} }
func addrTLB() *TLB         { return New(l1cfg(), Options{Policy: arch.IndexByAddress}) }
func partTLB(slots int) *TLB {
	t := New(l1cfg(), Options{Policy: arch.IndexByTB})
	t.ConfigureSlots(slots)
	return t
}
func sharedTLB(slots int) *TLB {
	t := New(l1cfg(), Options{Policy: arch.IndexByTBShared, Sharing: arch.ShareAdjacent})
	t.ConfigureSlots(slots)
	return t
}

func TestAddressIndexedHitMiss(t *testing.T) {
	tl := addrTLB()
	if _, hit, probed := tl.LookupA(0, 0, 100); hit || probed != 1 {
		t.Fatalf("cold lookup: hit=%v probed=%d, want miss with 1 set probed", hit, probed)
	}
	tl.InsertA(0, 0, 100, 555)
	ppn, hit, probed := tl.LookupA(0, 0, 100)
	if !hit || ppn != 555 || probed != 1 {
		t.Fatalf("after insert: ppn=%d hit=%v probed=%d", ppn, hit, probed)
	}
	s := tl.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 2 accesses, 1 hit, 1 miss", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", s.HitRate())
	}
}

func TestAddressIndexedSetSelection(t *testing.T) {
	tl := addrTLB() // 16 sets, 4 ways
	// VPNs congruent mod 16 land in one set: the 5th insert evicts.
	for i := 0; i < 5; i++ {
		tl.InsertA(0, 0, vm.VPN(16*i), vm.PPN(i))
	}
	if tl.Occupancy() != 4 {
		t.Errorf("occupancy = %d, want 4 (single set holds 4 ways)", tl.Occupancy())
	}
	// VPNs in distinct sets do not conflict.
	tl.Flush()
	for i := 0; i < 16; i++ {
		tl.InsertA(0, 0, vm.VPN(i), vm.PPN(i))
	}
	if tl.Occupancy() != 16 {
		t.Errorf("occupancy = %d, want 16 across 16 sets", tl.Occupancy())
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := addrTLB()
	// Fill one set (VPNs ≡ 0 mod 16).
	for i := 0; i < 4; i++ {
		tl.InsertA(0, 0, vm.VPN(16*i), vm.PPN(i))
	}
	// Touch VPN 0 so VPN 16 becomes LRU.
	if _, hit, _ := tl.LookupA(0, 0, 0); !hit {
		t.Fatal("expected hit on resident VPN 0")
	}
	tl.InsertA(0, 0, 16*4, 99) // evicts VPN 16
	if tl.ContainsA(0, 0, 16) {
		t.Error("LRU victim VPN 16 still resident")
	}
	for _, want := range []vm.VPN{0, 32, 48, 64} {
		if !tl.ContainsA(0, 0, want) {
			t.Errorf("VPN %d should be resident", want)
		}
	}
}

func TestInsertRefreshDoesNotDuplicate(t *testing.T) {
	tl := addrTLB()
	tl.InsertA(0, 0, 7, 1)
	tl.InsertA(0, 0, 7, 1)
	tl.InsertA(0, 0, 7, 1)
	if got := tl.Occupancy(); got != 1 {
		t.Errorf("occupancy = %d after repeated insert of same VPN, want 1", got)
	}
}

func TestPartitionedSetOwnership(t *testing.T) {
	tl := partTLB(16) // 16 sets, 16 slots: one set each
	for slot := 0; slot < 16; slot++ {
		lo, hi := tl.ownedSets(slot)
		if lo != slot || hi != slot+1 {
			t.Errorf("slot %d owns [%d,%d), want [%d,%d)", slot, lo, hi, slot, slot+1)
		}
	}
	tl.ConfigureSlots(4) // 4 slots: 4 sets each
	for slot := 0; slot < 4; slot++ {
		lo, hi := tl.ownedSets(slot)
		if hi-lo != 4 || lo != slot*4 {
			t.Errorf("slot %d owns [%d,%d), want [%d,%d)", slot, lo, hi, slot*4, slot*4+4)
		}
	}
	tl.ConfigureSlots(3) // 16/3: ranges 0-5,5-10,10-16 (sizes 5,5,6)
	total := 0
	prevHi := 0
	for slot := 0; slot < 3; slot++ {
		lo, hi := tl.ownedSets(slot)
		if lo != prevHi {
			t.Errorf("slot %d range [%d,%d) not contiguous with previous end %d", slot, lo, hi, prevHi)
		}
		total += hi - lo
		prevHi = hi
	}
	if total != 16 {
		t.Errorf("3 slots cover %d sets, want all 16", total)
	}
	tl.ConfigureSlots(32) // more slots than sets: fold
	lo, hi := tl.ownedSets(17)
	if lo != 1 || hi != 2 {
		t.Errorf("folded slot 17 owns [%d,%d), want [1,2)", lo, hi)
	}
}

func TestPartitionedIsolation(t *testing.T) {
	tl := partTLB(16)
	// Same VPN inserted by two TBs lives in two sets (paper's redundancy).
	tl.InsertA(0, 0, 42, 7)
	tl.InsertA(0, 1, 42, 7)
	if tl.Occupancy() != 2 {
		t.Errorf("occupancy = %d, want 2 (redundant entries across partitions)", tl.Occupancy())
	}
	// Slot 2 never inserted VPN 42: its lookup misses even though two other
	// partitions hold it.
	if _, hit, _ := tl.LookupA(0, 2, 42); hit {
		t.Error("partitioned lookup hit another TB's set")
	}
	// TB 0 thrashing its one set cannot evict TB 1's entries.
	for i := 0; i < 100; i++ {
		tl.InsertA(0, 0, vm.VPN(1000+i), vm.PPN(i))
	}
	if _, hit, _ := tl.LookupA(0, 1, 42); !hit {
		t.Error("TB 0 thrashing evicted TB 1's entry despite partitioning")
	}
}

func TestPartitionedProbesAllOwnedSets(t *testing.T) {
	tl := partTLB(4) // 4 sets per slot
	tl.InsertA(0, 0, 5, 50)
	_, hit, probed := tl.LookupA(0, 0, 5)
	if !hit {
		t.Fatal("miss on resident entry")
	}
	if probed != 4 {
		t.Errorf("probed %d sets, want 4 (lookup cost scales with sets per TB)", probed)
	}
	tl.ConfigureSlots(16)
	tl.InsertA(0, 0, 6, 60)
	if _, _, probed := tl.LookupA(0, 0, 6); probed != 1 {
		t.Errorf("probed %d sets with 16 slots, want 1", probed)
	}
}

func TestPartitionedFullVPNNoAliasing(t *testing.T) {
	tl := partTLB(16)
	// Two VPNs that alias under address indexing (same low bits) must be
	// distinguishable inside one TB's set because the full VPN is stored.
	tl.InsertA(0, 3, 0x10, 1)
	tl.InsertA(0, 3, 0x20, 2)
	p1, h1, _ := tl.LookupA(0, 3, 0x10)
	p2, h2, _ := tl.LookupA(0, 3, 0x20)
	if !h1 || !h2 || p1 != 1 || p2 != 2 {
		t.Errorf("full-VPN matching failed: (%d,%v) (%d,%v)", p1, h1, p2, h2)
	}
}

func TestSharingSpillsVictimToAdjacentSet(t *testing.T) {
	tl := sharedTLB(16) // one set of 4 ways per slot
	// Fill slot 0's set.
	for i := 0; i < 4; i++ {
		tl.InsertA(0, 0, vm.VPN(100+i), vm.PPN(i))
	}
	if tl.SharingActive(0) {
		t.Fatal("sharing active before any eviction")
	}
	// Fifth insert evicts LRU (VPN 100); neighbour slot 1's set is empty, so
	// the victim spills there and the flag is set.
	tl.InsertA(0, 0, 200, 9)
	if !tl.SharingActive(0) {
		t.Error("sharing flag not set after spill opportunity")
	}
	if s := tl.Stats(); s.Spills != 1 {
		t.Errorf("Spills = %d, want 1", s.Spills)
	}
	// The spilled translation must still hit for slot 0 (it probes the
	// neighbour's set once the flag is on).
	if _, hit, probed := tl.LookupA(0, 0, 100); !hit || probed != 2 {
		t.Errorf("spilled entry: hit=%v probed=%d, want hit via 2-set probe", hit, probed)
	}
}

func TestSharingDoesNotActivateWhenNeighbourBusy(t *testing.T) {
	tl := sharedTLB(16)
	// Fill slot 0's set, then the neighbour's, so the neighbour's entries
	// are all more recent than slot 0's LRU victim: the neighbour is busier
	// and must not be stolen from.
	for i := 0; i < 4; i++ {
		tl.InsertA(0, 0, vm.VPN(100+i), vm.PPN(i))
	}
	for i := 0; i < 4; i++ {
		tl.InsertA(0, 1, vm.VPN(500+i), vm.PPN(i))
	}
	tl.InsertA(0, 0, 200, 9)
	if tl.SharingActive(0) {
		t.Error("sharing activated although the adjacent set was busier")
	}
	// Neighbour's contents untouched.
	for i := 0; i < 4; i++ {
		if !tl.ContainsA(0, 1, vm.VPN(500+i)) {
			t.Errorf("neighbour entry %d displaced by failed spill", 500+i)
		}
	}
}

func TestSharingBalancesAgainstIdleNeighbour(t *testing.T) {
	// A busy TB next to an idle one whose entries have gone stale must
	// activate sharing and start using the idle TB's sets — the set
	// utilization balancing of paper §IV-B.
	tl := sharedTLB(16)
	for i := 0; i < 4; i++ {
		tl.InsertA(0, 1, vm.VPN(500+i), vm.PPN(i)) // neighbour filled first: stale
	}
	for i := 0; i < 4; i++ {
		tl.InsertA(0, 0, vm.VPN(100+i), vm.PPN(i))
	}
	tl.InsertA(0, 0, 200, 9) // oversubscription: neighbour's LRU is staler
	if !tl.SharingActive(0) {
		t.Fatal("sharing did not activate against a stale neighbour")
	}
	// All of slot 0's five translations must now be resident in the pool.
	for _, vpn := range []vm.VPN{100, 101, 102, 103, 200} {
		if !tl.ContainsA(0, 0, vpn) {
			t.Errorf("VPN %d missing from the pooled sets", vpn)
		}
	}
}

func TestSharingFlagResetOnTBFinish(t *testing.T) {
	tl := sharedTLB(16)
	for i := 0; i < 5; i++ {
		tl.InsertA(0, 0, vm.VPN(100+i), vm.PPN(i))
	}
	if !tl.SharingActive(0) {
		t.Fatal("precondition: sharing active")
	}
	// Slot 1 finishing resets flags of TBs sharing into its sets.
	tl.OnTBFinish(1)
	if tl.SharingActive(0) {
		t.Error("flag not reset when the set-owning TB finished")
	}
	// And a TB finishing resets its own flag.
	for i := 0; i < 5; i++ {
		tl.InsertA(0, 2, vm.VPN(300+i), vm.PPN(i))
	}
	if !tl.SharingActive(2) {
		t.Fatal("precondition: slot 2 sharing")
	}
	tl.OnTBFinish(2)
	if tl.SharingActive(2) {
		t.Error("own flag not reset on finish")
	}
	if s := tl.Stats(); s.FlagResets < 2 {
		t.Errorf("FlagResets = %d, want >= 2", s.FlagResets)
	}
}

func TestSharingIncreasesEffectiveCapacity(t *testing.T) {
	// A single TB with a working set of 8 pages on a 4-way set: partitioned
	// TLB thrashes, sharing spills into the idle neighbour and roughly
	// doubles the capacity available.
	run := func(tl *TLB) int64 {
		for round := 0; round < 50; round++ {
			for p := 0; p < 8; p++ {
				vpn := vm.VPN(1000 + p)
				if _, hit, _ := tl.LookupA(0, 0, vpn); !hit {
					tl.InsertA(0, 0, vpn, vm.PPN(p))
				}
			}
		}
		return tl.Stats().Hits
	}
	part := run(partTLB(16))
	shared := run(sharedTLB(16))
	if shared <= part {
		t.Errorf("sharing hits=%d not above partition-only hits=%d", shared, part)
	}
}

func TestAllToAllSharingSpillsBeyondAdjacent(t *testing.T) {
	adj := New(l1cfg(), Options{Policy: arch.IndexByTBShared, Sharing: arch.ShareAdjacent})
	adj.ConfigureSlots(16)
	all := New(l1cfg(), Options{Policy: arch.IndexByTBShared, Sharing: arch.ShareAllToAll})
	all.ConfigureSlots(16)
	for _, tl := range []*TLB{adj, all} {
		// Fill the adjacent neighbour (slot 1) so adjacent spills fail.
		for i := 0; i < 4; i++ {
			tl.InsertA(0, 1, vm.VPN(500+i), vm.PPN(i))
		}
		for i := 0; i < 6; i++ {
			tl.InsertA(0, 0, vm.VPN(100+i), vm.PPN(i))
		}
	}
	if adj.Stats().Spills != 0 {
		t.Errorf("adjacent mode spilled %d with full neighbour, want 0", adj.Stats().Spills)
	}
	if all.Stats().Spills == 0 {
		t.Error("all-to-all mode failed to spill past the full adjacent neighbour")
	}
}

func TestShareCounterThresholdDelaysSharing(t *testing.T) {
	tl := New(l1cfg(), Options{
		Policy:                arch.IndexByTBShared,
		Sharing:               arch.ShareAdjacent,
		ShareCounterThreshold: 3,
	})
	tl.ConfigureSlots(16)
	for i := 0; i < 4; i++ {
		tl.InsertA(0, 0, vm.VPN(100+i), vm.PPN(i))
	}
	tl.InsertA(0, 0, 200, 9) // opportunity 1
	tl.InsertA(0, 0, 201, 9) // opportunity 2
	if tl.SharingActive(0) {
		t.Fatal("sharing activated before threshold")
	}
	tl.InsertA(0, 0, 202, 9) // opportunity 3: activates
	if !tl.SharingActive(0) {
		t.Error("sharing not activated at threshold")
	}
}

func TestCompressionCoalescesContiguousRun(t *testing.T) {
	tl := New(l1cfg(), Options{Policy: arch.IndexByAddress, Mech: tlbmech.Spec{Kind: "compressed"}})
	// 8 contiguous pages with contiguous frames: one entry.
	for i := 0; i < 8; i++ {
		tl.InsertA(0, 0, vm.VPN(64+i), vm.PPN(900+i))
	}
	if got := tl.Occupancy(); got != 1 {
		t.Errorf("occupancy = %d for a contiguous 8-page run, want 1", got)
	}
	if got := tl.Stats().Coalesced; got != 7 {
		t.Errorf("Coalesced = %d, want 7", got)
	}
	for i := 0; i < 8; i++ {
		ppn, hit, _ := tl.LookupA(0, 0, vm.VPN(64+i))
		if !hit || ppn != vm.PPN(900+i) {
			t.Errorf("page %d: ppn=%d hit=%v, want %d", i, ppn, hit, 900+i)
		}
	}
}

func TestCompressionRejectsNonContiguousDelta(t *testing.T) {
	tl := New(l1cfg(), Options{Policy: arch.IndexByAddress, Mech: tlbmech.Spec{Kind: "compressed"}})
	tl.InsertA(0, 0, 64, 900)
	tl.InsertA(0, 0, 65, 999) // same group, different delta: separate entry
	if got := tl.Occupancy(); got != 2 {
		t.Errorf("occupancy = %d, want 2 (delta mismatch must not coalesce)", got)
	}
	p1, h1, _ := tl.LookupA(0, 0, 64)
	p2, h2, _ := tl.LookupA(0, 0, 65)
	if !h1 || !h2 || p1 != 900 || p2 != 999 {
		t.Errorf("lookups = (%d,%v) (%d,%v), want (900,true) (999,true)", p1, h1, p2, h2)
	}
}

func TestCompressionDoesNotHitAbsentGroupMember(t *testing.T) {
	tl := New(l1cfg(), Options{Policy: arch.IndexByAddress, Mech: tlbmech.Spec{Kind: "compressed"}})
	tl.InsertA(0, 0, 64, 900)
	if _, hit, _ := tl.LookupA(0, 0, 65); hit {
		t.Error("lookup hit a page never inserted (mask ignored)")
	}
}

func TestCompressionComposesWithPartitioning(t *testing.T) {
	tl := New(l1cfg(), Options{Policy: arch.IndexByTBShared, Sharing: arch.ShareAdjacent, Mech: tlbmech.Spec{Kind: "compressed"}})
	tl.ConfigureSlots(8)
	for i := 0; i < 8; i++ {
		tl.InsertA(0, 2, vm.VPN(128+i), vm.PPN(700+i))
	}
	if got := tl.Occupancy(); got != 1 {
		t.Errorf("occupancy = %d, want 1 compressed entry in TB 2's partition", got)
	}
	ppn, hit, _ := tl.LookupA(0, 2, 131)
	if !hit || ppn != 703 {
		t.Errorf("lookup = %d,%v want 703,true", ppn, hit)
	}
	if _, hit, _ := tl.LookupA(0, 5, 131); hit {
		t.Error("another TB hit the compressed entry across partitions")
	}
}

func TestConfigureSlotsKeepsContents(t *testing.T) {
	tl := partTLB(16)
	tl.InsertA(0, 0, 42, 7)
	tl.ConfigureSlots(16) // re-launch with same shape
	if _, hit, _ := tl.LookupA(0, 0, 42); !hit {
		t.Error("ConfigureSlots flushed contents; entries must survive for inter-TB reuse")
	}
}

func TestOnTBFinishKeepsEntries(t *testing.T) {
	tl := sharedTLB(16)
	tl.InsertA(0, 4, 42, 7)
	tl.OnTBFinish(4)
	if _, hit, _ := tl.LookupA(0, 4, 42); !hit {
		t.Error("OnTBFinish flushed entries; the design explicitly avoids flushing")
	}
	// Out-of-range slots are ignored.
	tl.OnTBFinish(-1)
	tl.OnTBFinish(99)
}

func TestProbeSetsAccounting(t *testing.T) {
	tl := partTLB(2) // 8 sets per slot
	tl.LookupA(0, 0, 1)
	tl.LookupA(0, 1, 2)
	if got := tl.Stats().ProbeSets; got != 16 {
		t.Errorf("ProbeSets = %d after two 8-set lookups, want 16", got)
	}
}

// Property: under any interleaving of lookups and inserts across slots, a
// partitioned TLB never reports a hit for a (slot, vpn) pair that was not
// previously inserted by a slot sharing those sets, and hit PPNs always match
// the last inserted PPN for that VPN.
func TestPartitionedNoFalseHitsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := sharedTLB(8)
		truth := make(map[vm.VPN]vm.PPN) // PPNs are per-VPN stable, as in a real page table
		for i := 0; i < 2000; i++ {
			slot := rng.Intn(8)
			vpn := vm.VPN(rng.Intn(100))
			ppn, ok := truth[vpn]
			if !ok {
				ppn = vm.PPN(rng.Intn(1 << 20))
				truth[vpn] = ppn
			}
			if rng.Intn(2) == 0 {
				tl.InsertA(0, slot, vpn, ppn)
			} else if got, hit, _ := tl.LookupA(0, slot, vpn); hit && got != ppn {
				return false // wrong translation: correctness violation
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: occupancy never exceeds capacity, for every policy.
func TestOccupancyBoundedProperty(t *testing.T) {
	policies := []Options{
		{Policy: arch.IndexByAddress},
		{Policy: arch.IndexByTB},
		{Policy: arch.IndexByTBShared, Sharing: arch.ShareAdjacent},
		{Policy: arch.IndexByTBShared, Sharing: arch.ShareAllToAll},
		{Policy: arch.IndexByAddress, Mech: tlbmech.Spec{Kind: "compressed"}},
	}
	for _, opt := range policies {
		opt := opt
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			tl := New(l1cfg(), opt)
			tl.ConfigureSlots(1 + rng.Intn(20))
			for i := 0; i < 500; i++ {
				tl.InsertA(0, rng.Intn(tl.NumSlots()), vm.VPN(rng.Intn(300)), vm.PPN(rng.Intn(300)))
			}
			return tl.Occupancy() <= tl.Config().Entries
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("policy %+v: %v", opt, err)
		}
	}
}

func TestFlush(t *testing.T) {
	tl := addrTLB()
	for i := 0; i < 20; i++ {
		tl.InsertA(0, 0, vm.VPN(i), vm.PPN(i))
	}
	tl.Flush()
	if tl.Occupancy() != 0 {
		t.Errorf("occupancy = %d after Flush, want 0", tl.Occupancy())
	}
}

func TestFIFOIgnoresRecency(t *testing.T) {
	tl := New(l1cfg(), Options{Policy: arch.IndexByAddress, Replacement: arch.ReplaceFIFO})
	// Fill one set (VPNs ≡ 0 mod 16), then touch the oldest entry: FIFO
	// must still evict it.
	for i := 0; i < 4; i++ {
		tl.InsertA(0, 0, vm.VPN(16*i), vm.PPN(i))
	}
	if _, hit, _ := tl.LookupA(0, 0, 0); !hit {
		t.Fatal("resident entry missed")
	}
	tl.InsertA(0, 0, 16*4, 99)
	if tl.ContainsA(0, 0, 0) {
		t.Error("FIFO kept the oldest-inserted entry after a recency touch")
	}
	// Under LRU the same sequence keeps VPN 0 (see TestLRUReplacement).
}

func TestRandomReplacementBounded(t *testing.T) {
	tl := New(l1cfg(), Options{Policy: arch.IndexByAddress, Replacement: arch.ReplaceRandom})
	for i := 0; i < 200; i++ {
		tl.InsertA(0, 0, vm.VPN(16*i), vm.PPN(i))
	}
	if got := tl.Occupancy(); got > tl.Config().Entries {
		t.Errorf("occupancy %d exceeds capacity", got)
	}
	// Determinism: same sequence, same contents.
	t2 := New(l1cfg(), Options{Policy: arch.IndexByAddress, Replacement: arch.ReplaceRandom})
	for i := 0; i < 200; i++ {
		t2.InsertA(0, 0, vm.VPN(16*i), vm.PPN(i))
	}
	for i := 0; i < 200; i++ {
		if tl.ContainsA(0, 0, vm.VPN(16*i)) != t2.ContainsA(0, 0, vm.VPN(16*i)) {
			t.Fatal("random replacement nondeterministic")
		}
	}
}

func TestSetPartitionOverridesOwnedSets(t *testing.T) {
	tl := partTLB(4) // 16 sets, equal split 4 each
	tl.SetPartition([]int{0, 10, 12, 14, 16})
	want := [][2]int{{0, 10}, {10, 12}, {12, 14}, {14, 16}}
	for slot, w := range want {
		lo, hi := tl.ownedSets(slot)
		if lo != w[0] || hi != w[1] {
			t.Errorf("slot %d owns [%d,%d), want [%d,%d)", slot, lo, hi, w[0], w[1])
		}
	}
	if got := tl.Partition(); got == nil || got[1] != 10 {
		t.Fatalf("Partition() = %v, want the installed bounds", got)
	}
	// nil restores the equal split.
	tl.SetPartition(nil)
	if lo, hi := tl.ownedSets(1); lo != 4 || hi != 8 {
		t.Errorf("after SetPartition(nil) slot 1 owns [%d,%d), want [4,8)", lo, hi)
	}
}

func TestSetPartitionLookupFollowsBounds(t *testing.T) {
	tl := partTLB(2) // 16 sets: equal split 8+8
	tl.InsertA(0, 0, 100, 1)
	// Shrink slot 0 to a single set; its old entries may become unreachable
	// (they live in sets it no longer probes), and slot 1 probes 15 sets.
	tl.SetPartition([]int{0, 1, 16})
	if _, _, probed := tl.LookupA(0, 0, 200); probed != 1 {
		t.Errorf("slot 0 probed %d sets, want 1", probed)
	}
	if _, _, probed := tl.LookupA(0, 1, 200); probed != 15 {
		t.Errorf("slot 1 probed %d sets, want 15", probed)
	}
	// Entries inserted under the new bounds hit under the new bounds.
	tl.InsertA(0, 1, 300, 3)
	if _, hit, _ := tl.LookupA(0, 1, 300); !hit {
		t.Error("slot 1 lost an entry inserted under the explicit partition")
	}
}

func TestSetPartitionResetByConfigureSlots(t *testing.T) {
	tl := partTLB(2)
	tl.SetPartition([]int{0, 2, 16})
	tl.ConfigureSlots(2)
	if tl.Partition() != nil {
		t.Fatal("ConfigureSlots kept the explicit partition")
	}
}

func TestSetPartitionValidates(t *testing.T) {
	tl := partTLB(2)
	for _, bad := range [][]int{
		{0, 16},     // wrong length
		{1, 8, 16},  // does not start at 0
		{0, 8, 15},  // does not end at Sets
		{0, 20, 16}, // non-monotone interior bound
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetPartition(%v) did not panic", bad)
				}
			}()
			tl.SetPartition(bad)
		}()
	}
	// Zero-width slots are legal (an inactive tenant owns nothing).
	tl.SetPartition([]int{0, 0, 16})
	if lo, hi := tl.ownedSets(0); lo != hi {
		t.Errorf("zero-width slot owns [%d,%d)", lo, hi)
	}
}
