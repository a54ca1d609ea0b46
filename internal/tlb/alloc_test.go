package tlb

// Allocation regression guards for the TLB lookup path. Lookup (and the
// setsToProbe scan behind it) runs once per coalesced page per issued memory
// instruction; probeBuf reuse makes it allocation-free, and these tests pin
// that so the per-instruction hot path cannot regress silently.

import (
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/vm"
)

// fillSome inserts a spread of pages across slots so lookups exercise both
// hit and miss paths over populated sets.
func fillSome(t *TLB, slots int) {
	for s := 0; s < slots; s++ {
		for i := 0; i < 64; i++ {
			vpn := vm.VPN(s*1024 + i*3)
			t.InsertA(0, s, vpn, vm.PPN(vpn+7))
		}
	}
}

func lookupAllocs(t *TLB, slots int) float64 {
	return testing.AllocsPerRun(100, func() {
		for s := 0; s < slots; s++ {
			for i := 0; i < 64; i++ {
				t.LookupA(0, s, vm.VPN(s*1024+i*2))
			}
		}
	})
}

func TestLookupZeroAllocIndexByAddress(t *testing.T) {
	cfg := arch.Default().L1TLB
	tlb := New(cfg, Options{Policy: arch.IndexByAddress})
	tlb.ConfigureSlots(4)
	fillSome(tlb, 4)
	if allocs := lookupAllocs(tlb, 4); allocs != 0 {
		t.Errorf("Lookup (IndexByAddress) allocated %.1f times per run, want 0", allocs)
	}
}

func TestLookupZeroAllocIndexByTBShared(t *testing.T) {
	cfg := arch.Default().L1TLB
	tlb := New(cfg, Options{Policy: arch.IndexByTBShared, Sharing: arch.ShareAdjacent})
	tlb.ConfigureSlots(4)
	fillSome(tlb, 4)
	if allocs := lookupAllocs(tlb, 4); allocs != 0 {
		t.Errorf("Lookup (IndexByTBShared) allocated %.1f times per run, want 0", allocs)
	}
}

func TestContainsZeroAlloc(t *testing.T) {
	cfg := arch.Default().L1TLB
	tlb := New(cfg, Options{Policy: arch.IndexByAddress})
	tlb.ConfigureSlots(4)
	fillSome(tlb, 4)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			tlb.ContainsA(0, 1, vm.VPN(1024+i*3))
		}
	})
	if allocs != 0 {
		t.Errorf("Contains allocated %.1f times per run, want 0", allocs)
	}
}
