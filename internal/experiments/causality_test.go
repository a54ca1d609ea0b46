package experiments

import "testing"

// TestShardedPlaceholderMergeCells pins a phase-1 causality hole of the
// sharded engine. Under the partitioned L1 TLB an MSHR merge never fills,
// so a TB slot's placeholder entry can outlive its page's fill. A later
// lookup that hits such a placeholder while the page is still in flight
// must merge with the in-flight translation inside the shard; deferred to
// the barrier instead, the merge's return cycle can lie behind the shard's
// clock, and the run aborted with "event ... scheduled in the past". These
// two scale-1.0 Fig 10/11 cells hit it at one slice.
func TestShardedPlaceholderMergeCells(t *testing.T) {
	for _, bench := range []string{"mis", "gemm"} {
		c := CellSpec{Bench: bench, Config: "sched+part+share", Scale: 1, Seed: 1, CellParallel: 2, L2Slices: 1}
		r, err := RunCell(c)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if r.Cycles <= 0 || r.InstsIssued <= 0 {
			t.Errorf("%s: empty result %+v", bench, r)
		}
	}
}
