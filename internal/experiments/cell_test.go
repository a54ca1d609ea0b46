package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"gputlb/internal/arch"
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
		"256-entry",              // figure 2 (its 64-entry bar is the baseline)
		"baseline-2M", "ours-2M", // huge-page study (its 4KB bar is the baseline)
		"counter>=4", "counter>=16", "all-to-all", "throttle=4", "throttle=8", // ablations
		"lrr", "translation-aware", "fifo", "random", "baseline+pwc", "proposal+pwc",
		"baseline-fa", // the L1 TLB conflict bound
	} {
		if !have[n] {
			t.Errorf("config %q missing from ConfigNames", n)
		}
	}
}

// TestConfigNamesBuildDistinctMachines: every name builds its own machine,
// and none fixes the translation mechanism or frame allocator, which are
// the cell's axes (Mech, Alloc). An alias of another name, or of a name
// plus a mechanism, would give one cell two keys and two labels.
func TestConfigNamesBuildDistinctMachines(t *testing.T) {
	names := ConfigNames()
	machines := make([]arch.Config, len(names))
	for i, n := range names {
		cfg, err := CellSpec{Config: n}.Machine()
		if err != nil {
			t.Fatalf("config %s: %v", n, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %s: %v", n, err)
		}
		if cfg.TLBMech != "" || cfg.AllocMode != "" {
			t.Errorf("config %s sets mechanism %q and allocator %q; use the cell's Mech and Alloc", n, cfg.TLBMech, cfg.AllocMode)
		}
		for j := range i {
			if reflect.DeepEqual(cfg, machines[j]) {
				t.Errorf("configs %s and %s build the same machine", names[j], n)
			}
		}
		machines[i] = cfg
	}
}

// recorder is an Executor that keeps the cells it is asked to run and
// returns empty results.
type recorder struct{ cells []CellSpec }

func (r *recorder) RunCells(_ context.Context, _ string, cells []CellSpec) ([]CellResult, error) {
	r.cells = append(r.cells, cells...)
	return make([]CellResult, len(cells)), nil
}

// synthetic is an Executor whose results are a made-up pure function of
// each cell's benchmark and config, distinct across configs.
type synthetic struct{}

func (synthetic) RunCells(_ context.Context, _ string, cells []CellSpec) ([]CellResult, error) {
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		k := int64(len(c.Bench))*131 + int64(len(c.Config))*17 + int64(c.Config[0]) + int64(c.Config[len(c.Config)-1])*7
		out[i] = CellResult{Bench: c.Bench, Config: c.Config, Cycles: 1000 + k, L1TLBHitRate: float64(k%97) / 97}
	}
	return out, nil
}

// TestAblationsOneGrid: -fig ablations runs the six ablations as one
// grid of 14 configs per benchmark, where running them one by one takes
// 19 cells per benchmark, and reduces to exactly the six ablations'
// tables.
func TestAblationsOneGrid(t *testing.T) {
	rec := &recorder{}
	opt := smallOpt()
	opt.Executor = rec
	if _, err := Ablations(opt); err != nil {
		t.Fatal(err)
	}
	if want := 14 * len(opt.Benchmarks); len(rec.cells) != want {
		t.Errorf("executor ran %d cells, want %d", len(rec.cells), want)
	}
	seen := map[[2]string]bool{}
	for _, c := range rec.cells {
		k := [2]string{c.Bench, c.Config}
		if seen[k] {
			t.Errorf("cell %v runs twice", k)
		}
		seen[k] = true
	}

	opt.Executor = synthetic{}
	tables, err := Ablations(opt)
	if err != nil {
		t.Fatal(err)
	}
	singles := []func(Options) ([]AblationRow, error){
		AblationSharing, AblationThrottle, AblationWarpSched, AblationPWC, AblationReplacement,
		func(o Options) ([]AblationRow, error) { return o.ablation("ablation-fa", assocPairs) },
	}
	if len(tables) != len(singles) {
		t.Fatalf("Ablations returned %d tables, want %d", len(tables), len(singles))
	}
	for i, run := range singles {
		want, err := run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tables[i], want) {
			t.Errorf("table %d = %+v, want %+v", i, tables[i], want)
		}
	}
}

// TestAblationsRunOnExecutor: every ablation sends all of its cells, each
// naming a config of ConfigNames, to the Executor, so the ablations run on
// a gputlbd like every other simulating figure: one cell per benchmark and
// distinct config of its (reference, variant) pairs.
func TestAblationsRunOnExecutor(t *testing.T) {
	named := map[string]bool{}
	for _, n := range ConfigNames() {
		named[n] = true
	}
	ablations := map[string]struct {
		run   func(Options) ([]AblationRow, error)
		cells int
	}{
		"sharing":     {AblationSharing, 4},
		"throttle":    {AblationThrottle, 3},
		"warpsched":   {AblationWarpSched, 3},
		"pwc":         {AblationPWC, 4},
		"replacement": {AblationReplacement, 3},
	}
	for name, a := range ablations {
		rec := &recorder{}
		opt := smallOpt()
		opt.Executor = rec
		if _, err := a.run(opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := a.cells * len(opt.Benchmarks); len(rec.cells) != want {
			t.Errorf("%s: executor ran %d cells, want %d", name, len(rec.cells), want)
		}
		for _, c := range rec.cells {
			if !named[c.Config] {
				t.Errorf("%s: cell config %q missing from ConfigNames", name, c.Config)
			}
		}
	}
}

// TestExecutorRefusesShardedEngine: a cell does not carry the engine, so
// a run that sends its cells to an Executor cannot honour CellParallel >= 2
// and fails before sending any.
func TestExecutorRefusesShardedEngine(t *testing.T) {
	rec := &recorder{}
	opt := smallOpt()
	opt.Executor = rec
	opt.CellParallel = 2
	if _, err := Eval(opt); err == nil || !strings.Contains(err.Error(), "cell-parallel 2") {
		t.Errorf("Eval with an executor at cell-parallel 2 = %v, want an error naming it", err)
	}
	if len(rec.cells) != 0 {
		t.Errorf("executor received %d cells", len(rec.cells))
	}
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

// TestCellSpecValidate covers Validate's canonicalization and rejections:
// explicit defaults validate to the spec that omits them, an objective
// takes its canonical name and is dropped where it changes nothing, and an
// unknown config, mechanism or objective is refused at submit time rather
// than when the cell is simulated.
func TestCellSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		in   CellSpec
		want CellSpec // the validated spec; ignored when err is set
		err  string   // substring of the expected error
	}{
		{name: "defaults",
			in:   CellSpec{Bench: "atax", Config: "baseline"},
			want: CellSpec{Bench: "atax", Config: "baseline", Scale: 1, Seed: 1}},
		{name: "explicit default mech and alloc",
			in:   CellSpec{Bench: "atax", Config: "baseline", Mech: "base", Alloc: "firsttouch"},
			want: CellSpec{Bench: "atax", Config: "baseline", Scale: 1, Seed: 1}},
		{name: "mech override",
			in:   CellSpec{Bench: "atax", Config: "baseline", Mech: "compressed", Alloc: "contig"},
			want: CellSpec{Bench: "atax", Config: "baseline", Mech: "compressed", Alloc: "contig", Scale: 1, Seed: 1}},
		{name: "deleted alias config",
			in:  CellSpec{Bench: "atax", Config: "compression"},
			err: `unknown config "compression"`},
		{name: "unknown mech",
			in:  CellSpec{Bench: "atax", Config: "baseline", Mech: "quantum"},
			err: "unknown mechanism"},
		{name: "objective ws",
			in:   CellSpec{Config: "multi-controller-spatial", Tenants: []string{"bfs", "atax"}, Objective: "ws"},
			want: CellSpec{Bench: "bfs+atax", Config: "multi-controller-spatial", Tenants: []string{"bfs", "atax"}, Scale: 1, Seed: 1}},
		{name: "objective weighted-speedup",
			in:   CellSpec{Config: "multi-controller-spatial", Tenants: []string{"bfs", "atax"}, Objective: "weighted-speedup"},
			want: CellSpec{Bench: "bfs+atax", Config: "multi-controller-spatial", Tenants: []string{"bfs", "atax"}, Scale: 1, Seed: 1}},
		{name: "objective max-min",
			in: CellSpec{Config: "multi-controller-spatial", Tenants: []string{"bfs", "atax"}, Objective: "max-min"},
			want: CellSpec{Bench: "bfs+atax", Config: "multi-controller-spatial", Tenants: []string{"bfs", "atax"}, Scale: 1, Seed: 1,
				Objective: "maxmin"}},
		{name: "objective on a non-controller config",
			in:   CellSpec{Config: "multi-shared-spatial", Tenants: []string{"bfs", "atax"}, Objective: "fairness"},
			want: CellSpec{Bench: "bfs+atax", Config: "multi-shared-spatial", Tenants: []string{"bfs", "atax"}, Scale: 1, Seed: 1}},
		{name: "unknown objective",
			in:  CellSpec{Config: "multi-shared-spatial", Tenants: []string{"bfs", "atax"}, Objective: "speed"},
			err: "unknown objective"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in
			err := got.Validate()
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Validate() = %v, want error containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("validated spec = %+v, want %+v", got, tc.want)
			}
		})
	}
}
