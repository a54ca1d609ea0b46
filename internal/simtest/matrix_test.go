package simtest

import (
	"fmt"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/control"
	"gputlb/internal/engine"
	"gputlb/internal/multi"
	"gputlb/internal/sched"
	"gputlb/internal/sim"
	"gputlb/internal/workloads"
)

// testParams keeps the matrix workloads small enough to run the full cross
// product in seconds while still exercising every engine path (TLB misses,
// walks, faults, dispatch waves).
func testParams() workloads.Params {
	return workloads.Params{PageShift: 12, Seed: 1, Scale: 0.1}
}

// soloBuild returns a Build for one benchmark under a config mutation.
func soloBuild(t *testing.T, bench string, mut func(*arch.Config)) Build {
	t.Helper()
	return func() (*sim.Simulator, error) {
		k, as, ok := workloads.CachedByName(bench, testParams())
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", bench)
		}
		cfg := arch.Default()
		mut(&cfg)
		return sim.New(cfg, k, as)
	}
}

// soloVariants are the solo configurations of the determinism matrix: the
// baseline plus each scheduler feature that changes the engine's event
// mix. A global-queue event beyond dispatch is the controller tick, which
// the controller matrices cover.
var soloVariants = []struct {
	name string
	mut  func(*arch.Config)
}{
	{"default", func(*arch.Config) {}},
	{"tlbAwareSched", func(c *arch.Config) { c.TBScheduler = arch.ScheduleTLBAware }},
	{"transAwareWarps", func(c *arch.Config) { c.WarpScheduler = arch.WarpTransAware }},
}

// TestSoloWorkerMatrix: every solo variant's stats snapshot and full trace
// stream are byte-identical whether the cell runs alone or beside copies
// of itself on concurrent sweep workers.
func TestSoloWorkerMatrix(t *testing.T) {
	for _, v := range soloVariants {
		t.Run(v.name, func(t *testing.T) {
			CheckConcurrentCells(t, soloBuild(t, "bfs", v.mut))
		})
	}
}

// TestSoloSerialDeterminism: the serial engine stays deterministic with the
// sharded machinery compiled in (its byte-identity to the committed golden
// stats is pinned separately by the experiments golden test).
func TestSoloSerialDeterminism(t *testing.T) {
	CheckSerialUnchanged(t, soloBuild(t, "bfs", func(*arch.Config) {}))
}

// TestSoloEpochMatrix: epoch length is invisible in the results, from
// degenerate one-cycle epochs up to the lookahead cap.
func TestSoloEpochMatrix(t *testing.T) {
	CheckEpochInvariance(t, soloBuild(t, "bfs", func(*arch.Config) {}), 1, nil)
}

// multiBuild returns a Build for a two-tenant co-run under the given L2 TLB
// mode and SM assignment policy.
func multiBuild(t *testing.T, mode multi.TLBMode, assign sched.SMAssignment) Build {
	t.Helper()
	return func() (*sim.Simulator, error) {
		opt := multi.Options{Params: testParams(), SMPolicy: assign, TLBMode: mode}
		tenants, err := multi.Tenants([]string{"bfs", "atax"}, opt)
		if err != nil {
			return nil, err
		}
		var policy arch.TLBIndexPolicy
		switch mode {
		case multi.TLBStaticMode:
			policy = arch.IndexByTB
		case multi.TLBDynamicMode:
			policy = arch.IndexByTBShared
		default:
			policy = arch.IndexByAddress
		}
		return sim.NewMulti(arch.Default(), tenants, sim.MultiOptions{L2TLBPolicy: policy})
	}
}

// TestMultiTenantMatrix crosses every L2 TLB tenancy mode with every SM
// assignment policy and checks each cell's stats and trace stream against
// copies of it run on concurrent sweep workers.
func TestMultiTenantMatrix(t *testing.T) {
	modes := []multi.TLBMode{multi.TLBSharedMode, multi.TLBStaticMode, multi.TLBDynamicMode}
	assigns := []sched.SMAssignment{sched.AssignSpatial, sched.AssignInterleaved, sched.AssignShared}
	for _, mode := range modes {
		for _, assign := range assigns {
			t.Run(fmt.Sprintf("%s_%s", mode, assign), func(t *testing.T) {
				CheckConcurrentCells(t, multiBuild(t, mode, assign))
			})
		}
	}
}

// TestMultiTenantEpochMatrix: one multi-tenant cell per TLB mode across the
// epoch-length matrix.
func TestMultiTenantEpochMatrix(t *testing.T) {
	for _, mode := range []multi.TLBMode{multi.TLBSharedMode, multi.TLBDynamicMode} {
		t.Run(mode.String(), func(t *testing.T) {
			CheckEpochInvariance(t, multiBuild(t, mode, sched.AssignSpatial), 1, nil)
		})
	}
}

// ctlBuild returns a Build for a two-tenant co-run with the online
// partitioning controller attached — and, with churn, two mid-run arrivals
// through a bounded admission queue. The short period forces many
// decisions, so any counter drift across epoch boundaries or concurrent
// cells would change an early decision and cascade into the results.
func ctlBuild(t *testing.T, churn bool) Build {
	t.Helper()
	return func() (*sim.Simulator, error) {
		opt := multi.Options{Params: testParams(), SMPolicy: sched.AssignSpatial}
		tenants, err := multi.Tenants([]string{"bfs", "atax"}, opt)
		if err != nil {
			return nil, err
		}
		mopt := sim.MultiOptions{L2TLBPolicy: arch.IndexByTB}
		if churn {
			spec := &sim.ChurnSpec{QueueCap: 1}
			for _, a := range []struct {
				bench string
				at    int64
			}{{"mis", 3000}, {"mvt", 6000}} {
				k, as, ok := workloads.CachedByName(a.bench, testParams())
				if !ok {
					return nil, fmt.Errorf("unknown benchmark %q", a.bench)
				}
				spec.Arrivals = append(spec.Arrivals, sim.ChurnArrival{
					Tenant: sim.Tenant{Name: a.bench, Kernel: k, AS: as},
					At:     engine.Cycle(a.at),
				})
			}
			mopt.Churn = spec
		}
		s, err := sim.NewMulti(arch.Default(), tenants, mopt)
		if err != nil {
			return nil, err
		}
		if _, err := s.AttachController(control.Config{Period: 512}); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// TestControllerWorkerMatrix: controller cells — with and without tenant
// churn — are byte-identical in stats and trace stream alone and on
// concurrent sweep workers.
func TestControllerWorkerMatrix(t *testing.T) {
	for _, churn := range []bool{false, true} {
		t.Run(fmt.Sprintf("churn=%v", churn), func(t *testing.T) {
			CheckConcurrentCells(t, ctlBuild(t, churn))
		})
	}
}

// TestControllerEpochMatrix: controller decisions key only on
// barrier-sampled state, so epoch length stays invisible even with churn.
func TestControllerEpochMatrix(t *testing.T) {
	for _, churn := range []bool{false, true} {
		t.Run(fmt.Sprintf("churn=%v", churn), func(t *testing.T) {
			CheckEpochInvariance(t, ctlBuild(t, churn), 1, nil)
		})
	}
}

// TestControllerSerialDeterminism: the serial engine runs controller + churn
// cells deterministically too.
func TestControllerSerialDeterminism(t *testing.T) {
	CheckSerialUnchanged(t, ctlBuild(t, true))
}
