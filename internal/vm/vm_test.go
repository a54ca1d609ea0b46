package vm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageTableMapWalk(t *testing.T) {
	pt := NewPageTable(12)
	if err := pt.Map(0x1234, 77); err != nil {
		t.Fatalf("Map: %v", err)
	}
	r := pt.Walk(0x1234)
	if !r.Found || r.PPN != 77 {
		t.Fatalf("Walk = %+v, want found PPN 77", r)
	}
	if r.Levels != Levels {
		t.Errorf("successful walk touched %d levels, want %d", r.Levels, Levels)
	}
	if pt.Mapped() != 1 {
		t.Errorf("Mapped = %d, want 1", pt.Mapped())
	}
}

func TestPageTableMissReportsPartialWalk(t *testing.T) {
	pt := NewPageTable(12)
	r := pt.Walk(0x1234)
	if r.Found {
		t.Fatal("walk of empty table found a translation")
	}
	if r.Levels != 1 {
		t.Errorf("empty-table walk touched %d levels, want 1 (absent at root)", r.Levels)
	}
	// Map a sibling sharing upper levels: a near-miss should walk deeper.
	if err := pt.Map(0x1235, 5); err != nil {
		t.Fatal(err)
	}
	r = pt.Walk(0x1234)
	if r.Found || r.Levels != Levels {
		t.Errorf("near-miss walk = %+v, want not-found at leaf level %d", r, Levels)
	}
}

func TestPageTableZeroPPN(t *testing.T) {
	pt := NewPageTable(12)
	if err := pt.Map(9, 0); err != nil {
		t.Fatal(err)
	}
	ppn, ok := pt.Translate(9)
	if !ok || ppn != 0 {
		t.Errorf("Translate(9) = %d,%v; PPN 0 must be representable", ppn, ok)
	}
}

func TestPageTableDoubleMapRejected(t *testing.T) {
	pt := NewPageTable(12)
	if err := pt.Map(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(1, 2); err == nil {
		t.Error("double map accepted")
	}
	ppn, _ := pt.Translate(1)
	if ppn != 1 {
		t.Errorf("translation clobbered to %d after rejected remap", ppn)
	}
}

// Property: the page table behaves exactly like a map[VPN]PPN under random
// map/translate traffic.
func TestPageTableMatchesModel(t *testing.T) {
	pt := NewPageTable(12)
	model := make(map[VPN]PPN)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		vpn := VPN(rng.Intn(4096)) | VPN(rng.Intn(4))<<27 // exercise multiple subtrees
		switch rng.Intn(2) {
		case 0: // map
			ppn := PPN(rng.Intn(1 << 20))
			err := pt.Map(vpn, ppn)
			if _, exists := model[vpn]; exists {
				if err == nil {
					t.Fatalf("step %d: Map(%#x) accepted remap", i, vpn)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: Map(%#x) = %v", i, vpn, err)
				}
				model[vpn] = ppn
			}
		default: // translate
			ppn, ok := pt.Translate(vpn)
			wantPPN, wantOK := model[vpn]
			if ok != wantOK || (ok && ppn != wantPPN) {
				t.Fatalf("step %d: Translate(%#x) = %d,%v want %d,%v", i, vpn, ppn, ok, wantPPN, wantOK)
			}
		}
		if pt.Mapped() != len(model) {
			t.Fatalf("step %d: Mapped = %d, model has %d", i, pt.Mapped(), len(model))
		}
	}
}

// TestFrameAllocatorContiguous: frames follow fault order — the first
// fault gets frame 1 (frame 0 is reserved) and each later faulting basic
// block starts right after the previous block's range, whatever its
// virtual position.
func TestFrameAllocatorContiguous(t *testing.T) {
	as := NewAddressSpace(12)
	r, _ := as.Alloc("x", 100*BasicBlockPages*4096)
	// Fault blocks in a virtual order unrelated to fault order.
	for i := 0; i < 100; i++ {
		block := (i * 37) % 100
		a := r.Base + Addr(block*BasicBlockPages*4096)
		p, faulted := as.Touch(a)
		if !faulted {
			t.Fatalf("first touch of block %d did not fault", block)
		}
		if want := PPN(1 + i*BasicBlockPages); p != want {
			t.Fatalf("fault %d (block %d) got frame %d, want %d", i, block, p, want)
		}
	}
	if got, want := as.frames.allocated(), uint64(100*BasicBlockPages); got != want {
		t.Errorf("allocated = %d frames, want %d (no gaps)", got, want)
	}
}

func TestAddressSpaceAllocDisjoint(t *testing.T) {
	as := NewAddressSpace(12)
	r1, err := as.Alloc("a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := as.Alloc("b", 5<<20)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := as.Alloc("c", 1)
	if err != nil {
		t.Fatal(err)
	}
	regions := []Region{r1, r2, r3}
	for i, r := range regions {
		if r.Base == 0 {
			t.Errorf("region %d based at VA 0", i)
		}
		if r.Base%regionAlign != 0 {
			t.Errorf("region %d base %#x not %d-aligned", i, r.Base, regionAlign)
		}
		for j, s := range regions {
			if i == j {
				continue
			}
			if r.Base < s.End() && s.Base < r.End() {
				t.Errorf("regions %d and %d overlap", i, j)
			}
		}
	}
	if _, err := as.Alloc("zero", 0); err == nil {
		t.Error("zero-byte Alloc accepted")
	}
	if got := len(as.Regions()); got != 3 {
		t.Errorf("Regions() has %d entries, want 3", got)
	}
}

func TestAddressSpaceDemandPaging(t *testing.T) {
	as := NewAddressSpace(12)
	r, _ := as.Alloc("x", 40*4096)
	ppn0, faulted := as.Touch(r.Base)
	if !faulted {
		t.Error("first touch did not fault")
	}
	ppnAgain, faulted := as.Touch(r.Base + 100)
	if faulted {
		t.Error("second touch of same page faulted")
	}
	if ppnAgain != ppn0 {
		t.Errorf("same page translated to %d then %d", ppn0, ppnAgain)
	}
	// The whole 16-page basic block was populated by the first fault.
	_, faulted = as.Touch(r.Base + 4096)
	if faulted {
		t.Error("page in an already-populated basic block faulted")
	}
	// The next basic block faults independently.
	_, faulted = as.Touch(r.Base + BasicBlockPages*4096)
	if !faulted {
		t.Error("first touch of the next basic block did not fault")
	}
	if as.Faults() != 2 {
		t.Errorf("Faults = %d, want 2", as.Faults())
	}
	if as.PageTable().Mapped() != 2*BasicBlockPages {
		t.Errorf("Mapped = %d, want %d", as.PageTable().Mapped(), 2*BasicBlockPages)
	}
}

func TestBasicBlockContiguity(t *testing.T) {
	// Pages of one basic block must get consecutive frames: the physical
	// contiguity TLB compression exploits.
	as := NewAddressSpace(12)
	r, _ := as.Alloc("x", BasicBlockPages*4096)
	base, _ := as.Touch(r.Base)
	for i := 1; i < BasicBlockPages; i++ {
		p, faulted := as.Touch(r.Base + Addr(i*4096))
		if faulted {
			t.Fatalf("page %d of populated block faulted", i)
		}
		if p != base+PPN(i) {
			t.Fatalf("page %d frame %d, want contiguous %d", i, p, base+PPN(i))
		}
	}
}

func TestAddressSpaceHugePages(t *testing.T) {
	as := NewAddressSpace(21)
	r, _ := as.Alloc("big", 10<<21)
	// Touches within the same 2MB page must not fault twice.
	_, f1 := as.Touch(r.Base)
	_, f2 := as.Touch(r.Base + 1<<20)
	_, f3 := as.Touch(r.Base + 1<<21)
	if !f1 || f2 || !f3 {
		t.Errorf("huge-page faulting = %v,%v,%v, want true,false,true", f1, f2, f3)
	}
	if as.VPNOf(r.Base) == as.VPNOf(r.Base+1<<21) {
		t.Error("distinct 2MB pages share a VPN")
	}
	if as.VPNOf(r.Base) != as.VPNOf(r.Base+1<<20) {
		t.Error("offsets within one 2MB page got different VPNs")
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Name: "r", Base: 0x200000, Bytes: 4096}
	if !r.Contains(0x200000) || !r.Contains(0x200fff) {
		t.Error("Contains rejects interior bytes")
	}
	if r.Contains(0x1fffff) || r.Contains(0x201000) {
		t.Error("Contains accepts exterior bytes")
	}
	if r.End() != 0x201000 {
		t.Errorf("End = %#x, want 0x201000", r.End())
	}
}

// Property: Touch is idempotent in PPN and faults exactly once per basic
// block.
func TestTouchProperty(t *testing.T) {
	f := func(offsets []uint32) bool {
		as := NewAddressSpace(12)
		r, err := as.Alloc("p", 64<<20)
		if err != nil {
			return false
		}
		seen := make(map[VPN]PPN)
		blocks := make(map[VPN]bool)
		for _, off := range offsets {
			a := r.Base + Addr(off%(64<<20))
			ppn, faulted := as.Touch(a)
			vpn := as.VPNOf(a)
			block := vpn &^ (BasicBlockPages - 1)
			if prev, ok := seen[vpn]; ok && ppn != prev {
				return false // translation changed
			}
			seen[vpn] = ppn
			if faulted == blocks[block] {
				return false // must fault iff the block was unpopulated
			}
			blocks[block] = true
		}
		return as.Faults() == uint64(len(blocks))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
