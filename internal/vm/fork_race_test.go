package vm

// Race test for Fork: parallel sweep cells each simulate their own fork of
// one built address space, demand-faulting concurrently. Forks must share
// no mutable state — in particular no frame-allocator state — so this test
// is expected to run under -race (the CI test-race target does) and to
// produce, on every fork, exactly the allocation sequence a lone fork sees.

import (
	"sync"
	"testing"
)

func TestForkConcurrentDemandFaultsAreIndependent(t *testing.T) {
	proto := NewAddressSpace(12)
	r, err := proto.Alloc("data", 1<<20) // 256 pages
	if err != nil {
		t.Fatal(err)
	}

	// Reference: one fork touched sequentially.
	touch := func(as *AddressSpace) ([]PPN, uint64) {
		ppns := make([]PPN, 0, 256)
		for a := r.Base; a < r.End(); a += 4096 {
			p, _ := as.Touch(a)
			ppns = append(ppns, p)
		}
		return ppns, as.Faults()
	}
	wantPPNs, wantFaults := touch(proto.Fork())

	const forks = 8
	gotPPNs := make([][]PPN, forks)
	gotFaults := make([]uint64, forks)
	allocated := make([]uint64, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			as := proto.Fork()
			gotPPNs[i], gotFaults[i] = touch(as)
			allocated[i] = as.frames.allocated()
		}(i)
	}
	wg.Wait()

	for i := 0; i < forks; i++ {
		if gotFaults[i] != wantFaults {
			t.Errorf("fork %d took %d faults, want %d", i, gotFaults[i], wantFaults)
		}
		if allocated[i] != allocated[0] {
			t.Errorf("fork %d allocated %d frames, fork 0 allocated %d — allocator state leaked across forks",
				i, allocated[i], allocated[0])
		}
		for j, p := range gotPPNs[i] {
			if p != wantPPNs[j] {
				t.Fatalf("fork %d page %d mapped to PPN %d, want %d — frame allocation not independent",
					i, j, p, wantPPNs[j])
			}
		}
	}
	// The proto itself stayed untouched throughout.
	if proto.Faults() != 0 || proto.frames.allocated() != 0 {
		t.Errorf("proto mutated by forked runs: %d faults, %d frames", proto.Faults(), proto.frames.allocated())
	}
}
