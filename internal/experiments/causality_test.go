package experiments

import (
	"testing"

	"gputlb/internal/workloads"
)

// TestShardedPlaceholderMergeCells pins a phase-1 causality hole of the
// sharded engine. Under the partitioned L1 TLB an MSHR merge never fills,
// so a TB slot's placeholder entry can outlive its page's fill. A later
// lookup that hits such a placeholder while the page is still in flight
// must merge with the in-flight translation inside the shard; deferred to
// the barrier instead, the merge's return cycle can lie behind the shard's
// clock, and the run aborted with "event ... scheduled in the past". These
// two scale-1.0 Fig 10/11 cells hit it at one slice.
func TestShardedPlaceholderMergeCells(t *testing.T) {
	opt := Options{
		Params:       workloads.DefaultParams(),
		Benchmarks:   []string{"mis", "gemm"},
		Parallelism:  1,
		CellParallel: 2,
		L2Slices:     1,
	}
	res, err := opt.grid("placeholder-merge", "sched+part+share")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res {
		if r := row[0]; r.Cycles <= 0 || r.InstsIssued <= 0 {
			t.Errorf("%s: empty result %+v", r.Bench, r)
		}
	}
}
