package experiments

import (
	"context"
	"testing"

	"gputlb/internal/multi"
	"gputlb/internal/sched"
)

func TestParseMultiConfig(t *testing.T) {
	mode, assign, ok := ParseMultiConfig("multi-dynamic-spatial")
	if !ok || mode != multi.TLBDynamicMode || assign != sched.AssignSpatial {
		t.Errorf("parsed %v/%v/%v", mode, assign, ok)
	}
	for _, bad := range []string{"baseline", "multi-", "multi-dynamic", "multi-x-spatial", "multi-dynamic-x"} {
		if _, _, ok := ParseMultiConfig(bad); ok {
			t.Errorf("%q accepted as a multi config", bad)
		}
	}
	// Every advertised name must parse.
	for _, name := range MultiConfigNames() {
		if _, _, ok := ParseMultiConfig(name); !ok {
			t.Errorf("MultiConfigNames entry %q does not parse", name)
		}
	}
	// 4 L2 TLB tenancy modes (shared, static, dynamic, controller) x 3 SM
	// assignment policies.
	if n := len(MultiConfigNames()); n != 12 {
		t.Errorf("MultiConfigNames = %d entries, want 12", n)
	}
}

func TestConfigNamesCoverEvaluationGrids(t *testing.T) {
	names := ConfigNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, n := range []string{
		"baseline", "sched", "sched+part", "sched+part+share", // figures 10/11
		"64-entry", "256-entry", // figure 2
		"compression", "ours+compression", // figure 12
		"baseline-4K", "baseline-2M", "ours-2M", // huge-page study
	} {
		if !have[n] {
			t.Errorf("config %q missing from ConfigNames", n)
		}
	}
}

// recorder is an Executor that keeps the cells it is asked to run and
// returns empty results.
type recorder struct{ cells []CellSpec }

func (r *recorder) RunCells(_ context.Context, _ string, cells []CellSpec) ([]CellResult, error) {
	r.cells = append(r.cells, cells...)
	return make([]CellResult, len(cells)), nil
}

// TestObjectiveReachesControllerCells: -objective sets the partitioning
// objective of every controller cell of the co-run and churn grids and of
// no other cell; without it no cell carries one, so default cells keep
// their cache keys.
func TestObjectiveReachesControllerCells(t *testing.T) {
	figs := map[string]func(Options) error{
		"multi": func(o Options) error { _, err := MultiGrid(o); return err },
		"churn": func(o Options) error { _, err := ChurnGrid(o); return err },
	}
	for name, run := range figs {
		for _, objective := range []string{"", "maxmin"} {
			rec := &recorder{}
			opt := multiOpt("bfs", "atax")
			opt.Objective = objective
			opt.Executor = rec
			if err := run(opt); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			controllers := 0
			for _, c := range rec.cells {
				want := ""
				if mode, _, ok := ParseMultiConfig(c.Config); ok && mode == multi.TLBControllerMode {
					want = objective
					controllers++
				}
				if c.Objective != want {
					t.Errorf("%s -objective %q: cell %s [%s] has objective %q, want %q", name, objective, c.Bench, c.Config, c.Objective, want)
				}
			}
			if controllers == 0 {
				t.Errorf("%s: no controller cells", name)
			}
		}
	}
}
