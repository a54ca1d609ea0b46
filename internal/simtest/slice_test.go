package simtest

import (
	"fmt"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/engine"
	"gputlb/internal/multi"
	"gputlb/internal/sched"
)

// TestSoloSliceMatrix: for every slice count the default geometry supports,
// a solo run's stats snapshot is byte-identical across epoch lengths.
// Each K is its own legal serialization: cells compare within a K, never
// across two.
func TestSoloSliceMatrix(t *testing.T) {
	for _, k := range SliceMatrix() {
		t.Run(fmt.Sprintf("slices=%d", k), func(t *testing.T) {
			CheckEpochInvariance(t, soloBuild(t, "bfs", func(*arch.Config) {}), k, nil)
		})
	}
}

// TestMultiTenantSliceMatrix: sliced-barrier invariance for a two-tenant
// co-run under the dynamically partitioned L2 TLB — the mode where the
// sub-TLBs carry scaled set partitions and per-slot sharing state.
func TestMultiTenantSliceMatrix(t *testing.T) {
	for _, k := range SliceMatrix() {
		t.Run(fmt.Sprintf("slices=%d", k), func(t *testing.T) {
			CheckEpochInvariance(t, multiBuild(t, multi.TLBDynamicMode, sched.AssignSpatial),
				k, []engine.Cycle{0, 7})
		})
	}
}

// TestControllerSliceMatrix: controller cells — with and without tenant
// churn — stay byte-identical across epoch lengths under the sliced
// barrier. Churn exercises the fence path: tenant completions
// repartition the sub-TLBs mid-epoch, at their exact canonical positions.
func TestControllerSliceMatrix(t *testing.T) {
	for _, churn := range []bool{false, true} {
		for _, k := range []int{2, 4} {
			t.Run(fmt.Sprintf("churn=%v/slices=%d", churn, k), func(t *testing.T) {
				CheckEpochInvariance(t, ctlBuild(t, churn), k, []engine.Cycle{0, 1, 40})
			})
		}
	}
}

// TestSlicedModelInvariants: quantities fixed by the workload — not by
// request ordering — agree between the serial engine and the sliced barrier
// at every slice count: the slices change timing, never model structure.
func TestSlicedModelInvariants(t *testing.T) {
	b := soloBuild(t, "bfs", func(*arch.Config) {})
	serial := serialResult(t, b)
	for _, k := range []int{2, 4, 8} {
		r := shardedResult(t, b, k, 0)
		if r.InstsIssued != serial.InstsIssued {
			t.Errorf("slices=%d: InstsIssued %d != serial %d", k, r.InstsIssued, serial.InstsIssued)
		}
		if r.PageRequests != serial.PageRequests {
			t.Errorf("slices=%d: PageRequests %d != serial %d", k, r.PageRequests, serial.PageRequests)
		}
		if r.LineRequests != serial.LineRequests {
			t.Errorf("slices=%d: LineRequests %d != serial %d", k, r.LineRequests, serial.LineRequests)
		}
		if r.Faults != serial.Faults {
			t.Errorf("slices=%d: Faults %d != serial %d", k, r.Faults, serial.Faults)
		}
		var tbs, serialTBs int
		for _, n := range r.TBsPerSM {
			tbs += n
		}
		for _, n := range serial.TBsPerSM {
			serialTBs += n
		}
		if tbs != serialTBs {
			t.Errorf("slices=%d: TBs %d != serial %d", k, tbs, serialTBs)
		}
	}
}

// TestSliceCountOneRequestsAgree: every request that resolves to one
// address slice — SetL2Slices(0), SetL2Slices(1), and a request the
// geometry clamps to one (a single memory partition cannot split) — runs
// the same barrier, byte-identical.
func TestSliceCountOneRequestsAgree(t *testing.T) {
	b := soloBuild(t, "bfs", func(c *arch.Config) { c.MemPartitions = 1 })
	_, want, _, err := Run(b, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4} {
		_, got, _, err := Run(b, k, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("slices=%d diverged from slices=0", k)
		}
	}
}
