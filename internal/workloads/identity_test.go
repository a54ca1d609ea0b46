package workloads

// Identity pins for the trace generators: a digest of every benchmark's
// built trace, which must not move when the builders are made faster, and
// must not depend on how many goroutines build it.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"testing"

	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// identityPoints are the (page shift, scale, seed) points the digest covers.
var identityPoints = []Params{
	{PageShift: 12, Scale: 0.05, Seed: 1},
	{PageShift: 12, Scale: 0.05, Seed: 99},
	{PageShift: 21, Scale: 0.05, Seed: 1},
}

// wantIdentityDigest is traceDigest over identityPoints. It changes only
// when a generator's output changes on purpose.
const wantIdentityDigest = "1f1df8753491bd37965a78743ffc81c7650df2a501c8112609a325d41e7dfc5d"

// hashBuild feeds one built benchmark into h: its WriteKernel bytes, its
// region layout, and whether each instruction's Addrs is nil, empty or
// populated (spelled out so the pin does not rest on the encoding).
func hashBuild(t *testing.T, h hash.Hash, k *trace.Kernel, as *vm.AddressSpace) {
	t.Helper()
	if err := trace.WriteKernel(h, k); err != nil {
		t.Fatal(err)
	}
	for _, r := range as.Regions() {
		fmt.Fprintf(h, "region %s %d %d\n", r.Name, r.Base, r.Bytes)
	}
	var tags []byte
	for _, tb := range k.TBs {
		for _, w := range tb.Warps {
			for _, in := range w.Insts {
				switch {
				case in.Addrs == nil:
					tags = append(tags, 0)
				case len(in.Addrs) == 0:
					tags = append(tags, 1)
				default:
					tags = append(tags, 2)
				}
			}
		}
	}
	binary.Write(h, binary.LittleEndian, uint64(len(tags)))
	h.Write(tags)
}

// traceDigest builds every benchmark at every identity point and hashes
// the results in registry order.
func traceDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, p := range identityPoints {
		for _, s := range All() {
			fmt.Fprintf(h, "bench %s shift %d scale %g seed %d\n", s.Name, p.PageShift, p.Scale, p.Seed)
			k, as := s.Build(p)
			hashBuild(t, h, k, as)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestTraceDigestPinned(t *testing.T) {
	if got := traceDigest(t); got != wantIdentityDigest {
		t.Errorf("trace digest %s, want %s: a generator's output changed", got, wantIdentityDigest)
	}
}

// TestTraceDigestIndependentOfGOMAXPROCS pins the same digest with one
// and with four schedulable threads, so how a build is spread over
// goroutines never shows in its output.
func TestTraceDigestIndependentOfGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := traceDigest(t); got != wantIdentityDigest {
			t.Errorf("GOMAXPROCS=%d: trace digest %s, want %s", procs, got, wantIdentityDigest)
		}
	}
}

// TestAddrsHaveNoSpareCapacity checks that every memory instruction's lane
// slice ends at its capacity, so an append to one instruction's lanes can
// never write into another's.
func TestAddrsHaveNoSpareCapacity(t *testing.T) {
	for _, p := range identityPoints[:2] {
		for _, s := range All() {
			k, _ := s.Build(p)
			for _, tb := range k.TBs {
				for _, w := range tb.Warps {
					for _, in := range w.Insts {
						if cap(in.Addrs) != len(in.Addrs) {
							t.Fatalf("%s seed %d TB %d: Addrs len %d cap %d",
								s.Name, p.Seed, tb.ID, len(in.Addrs), cap(in.Addrs))
						}
					}
				}
			}
		}
	}
}
