package simtest

import (
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/multi"
	"gputlb/internal/sched"
	"gputlb/internal/sim"
)

// mechConfigs are the non-base translation mechanisms with the frame
// allocator each is evaluated under; base's determinism is pinned by the
// golden stats and every other matrix cell.
var mechConfigs = []struct {
	mech  string
	alloc string
}{
	{"subentry", ""},
	{"deadblock", ""},
	{"largereach", "contig"},
}

func mechMut(mech, alloc string) func(*arch.Config) {
	return func(c *arch.Config) {
		c.TLBMech = mech
		c.AllocMode = alloc
	}
}

// TestMechWorkerMatrix: each mechanism's stats snapshot and trace stream are
// byte-identical alone and on concurrent sweep workers — mechanism side
// tables (sub-slots, predictor counters, run bounds) live in the cell,
// never in state cells share.
func TestMechWorkerMatrix(t *testing.T) {
	for _, mc := range mechConfigs {
		t.Run(mc.mech, func(t *testing.T) {
			CheckConcurrentCells(t, soloBuild(t, "bfs", mechMut(mc.mech, mc.alloc)))
		})
	}
}

// TestMechSliceMatrix: each mechanism under the sliced barrier is a pure
// function of the canonical op stream for fixed K — slice sub-TLB
// mechanisms fold deterministically at run end, whatever the epochs.
func TestMechSliceMatrix(t *testing.T) {
	for _, mc := range mechConfigs {
		t.Run(mc.mech, func(t *testing.T) {
			CheckEpochInvariance(t, soloBuild(t, "bfs", mechMut(mc.mech, mc.alloc)), 2, nil)
		})
	}
}

// TestMechSerialDeterminism: the serial engine runs every mechanism
// deterministically too.
func TestMechSerialDeterminism(t *testing.T) {
	for _, mc := range mechConfigs {
		t.Run(mc.mech, func(t *testing.T) {
			CheckSerialUnchanged(t, soloBuild(t, "bfs", mechMut(mc.mech, mc.alloc)))
		})
	}
}

// mechMultiBuild returns a Build for a two-tenant co-run on a fully shared
// L2 TLB under the given mechanism — the regime where sub-entry sharing
// actually shares tags across ASIDs.
func mechMultiBuild(t *testing.T, mech, alloc string) Build {
	t.Helper()
	return func() (*sim.Simulator, error) {
		opt := multi.Options{Params: testParams(), SMPolicy: sched.AssignSpatial}
		tenants, err := multi.Tenants([]string{"bfs", "atax"}, opt)
		if err != nil {
			return nil, err
		}
		cfg := arch.Default()
		cfg.TLBMech = mech
		cfg.AllocMode = alloc
		return sim.NewMulti(cfg, tenants, sim.MultiOptions{})
	}
}

// TestMechMultiTenantMatrix: the multi-tenant cells of the mechanism study
// are byte-identical alone and on concurrent sweep workers — cross-ASID
// sub-entry state stays inside the cell.
func TestMechMultiTenantMatrix(t *testing.T) {
	for _, mc := range mechConfigs {
		t.Run(mc.mech, func(t *testing.T) {
			CheckConcurrentCells(t, mechMultiBuild(t, mc.mech, mc.alloc))
		})
	}
}
