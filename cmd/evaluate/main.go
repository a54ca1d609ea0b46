// Command evaluate regenerates the paper's study, one -fig name per study:
// Table III (the baseline configuration), Table II and Figures 2-6 (the
// motivation and characterization), Figures 10 and 11 (hit rates and
// normalized execution time under the four configurations), Figure 12
// (combination with TLB compression), the huge-page study, the multi-tenant
// co-run and churn grids, the translation-mechanism study, the seed sweep,
// the design-space ablations, the SM balance study, and warp-granularity
// reuse.
//
// Examples:
//
//	evaluate                 # figures 10-12 and the huge-page study
//	evaluate -fig 11
//	evaluate -fig table2,2,3,4,5,6       # the characterization
//	evaluate -fig table3,table2,2,3,4,5,6,10,11,12,hugepage,balance,warp
//	                         # the whole study as one document
//	evaluate -fig multi -bench bfs,atax
//	evaluate -fig ablations
//	evaluate -daemon http://localhost:8372 -fig 11   # run on a gputlbd
//
// Studies print in the order -help lists them, whatever the -fig order. An
// unknown name exits 2 listing the valid ones.
//
// With -daemon every simulating study except balance sends its cells to
// the daemon and renders exactly what an in-process run renders; the trace
// analyses (Table II, Figures 3-6, warp) simulate nothing and run locally.
// Daemon cells run on the serial engine, so -daemon refuses
// -cell-parallel > 1.
// The URL may equally point at a fabric coordinator (gputlbd
// -coordinator): the /jobs API is identical and the distributed run's
// result artifact is byte-identical to a single daemon's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"slices"
	"strings"

	"gputlb"
	"gputlb/internal/cliutil"
	"gputlb/internal/control"
	"gputlb/internal/experiments"
	"gputlb/internal/jobs"
)

// emitFunc prints one table, or its rows as JSON under name with -json.
type emitFunc func(name, table string, rows any)

// A study produces one or more of the tables -fig selects by name.
type study struct {
	name string
	run  func(opt gputlb.ExperimentOptions, emit emitFunc) error
}

// table is the study of one row set, emitted under the study's name (a
// numbered figure's as "fig<n>").
func table[R any](name string, run func(gputlb.ExperimentOptions) ([]R, error), render func([]R) string) study {
	key := name
	if name[0] >= '0' && name[0] <= '9' {
		key = "fig" + name
	}
	return study{name, func(opt gputlb.ExperimentOptions, emit emitFunc) error {
		rows, err := run(opt)
		if err == nil {
			emit(key, render(rows), rows)
		}
		return err
	}}
}

// titled binds a table title to a renderer shared by several figures.
func titled[R any](title string, render func(string, []R) string) func([]R) string {
	return func(rows []R) string { return render(title, rows) }
}

// ablations names and titles the tables of the design-space ablations
// -fig ablations renders, in the order gputlb.Ablations returns them.
var ablations = []struct{ name, title string }{
	{"ablation-sharing", "Ablation — sharing activation: counter thresholds and all-to-all vs the 1-bit adjacent flag"},
	{"ablation-throttle", "Ablation — TB throttling combined with the proposal (§IV-A extension)"},
	{"ablation-warpsched", "Ablation — warp schedulers under the proposal (vs GTO; 'translation-aware' is the paper's future work)"},
	{"ablation-pwc", "Ablation — 64-entry page-walk cache (vs the same config without one)"},
	{"ablation-replacement", "Ablation — TLB replacement policies under the proposal (vs LRU)"},
	{"ablation-fa", "Ablation — fully associative 64-entry L1 TLB on the baseline (an idealized bound on conflict removal, not a proposal)"},
}

// studies returns every study, in print order. Figures 10 and 11 share
// one run of their grid.
func studies() []study {
	var evalRows []gputlb.EvalRow
	var evalErr error
	eval := func(opt gputlb.ExperimentOptions) ([]gputlb.EvalRow, error) {
		if evalRows == nil && evalErr == nil {
			evalRows, evalErr = gputlb.Eval(opt)
		}
		return evalRows, evalErr
	}
	return []study{
		{"table3", func(_ gputlb.ExperimentOptions, emit emitFunc) error {
			emit("table3", gputlb.Table3(), experiments.BaselineConfig())
			return nil
		}},
		table("table2", gputlb.Table2, gputlb.RenderTable2),
		table("2", gputlb.Fig2, gputlb.RenderFig2),
		table("3", gputlb.Fig3, titled("Figure 3 — inter-TB translation reuse (fraction of TB pairs per bin)", gputlb.RenderBins)),
		table("4", gputlb.Fig4, titled("Figure 4 — intra-TB translation reuse (fraction of TBs per bin)", gputlb.RenderBins)),
		table("5", gputlb.Fig5, titled("Figure 5 — intra-TB reuse distance CDF, TBs running concurrently", gputlb.RenderCDF)),
		table("6", gputlb.Fig6, titled("Figure 6 — intra-TB reuse distance CDF, one TB at a time", gputlb.RenderCDF)),
		table("10", eval, gputlb.RenderFig10),
		table("11", eval, gputlb.RenderFig11),
		table("12", gputlb.Fig12, gputlb.RenderFig12),
		table("hugepage", gputlb.HugePages, gputlb.RenderHugePages),
		// The co-run grids and the mechanism study are not part of -fig all:
		// all benchmark pairs x their configurations dwarf the single-kernel
		// figures.
		table("multi", gputlb.MultiGrid, gputlb.RenderMulti),
		table("churn", gputlb.ChurnGrid, gputlb.RenderChurn),
		{"mech", func(opt gputlb.ExperimentOptions, emit emitFunc) error {
			if err := table("mech", gputlb.MechEval, gputlb.RenderMechEval).run(opt, emit); err != nil || len(opt.Benchmarks) == 1 {
				return err
			}
			return table("mech-multi", gputlb.MechMulti, gputlb.RenderMechMulti).run(opt, emit)
		}},
		table("seeds", func(opt gputlb.ExperimentOptions) ([]gputlb.SeedSweepRow, error) {
			return gputlb.SeedSweep(opt, []int64{1, 2, 3})
		}, gputlb.RenderSeedSweep),
		{"ablations", func(opt gputlb.ExperimentOptions, emit emitFunc) error {
			tables, err := gputlb.Ablations(opt)
			if err != nil {
				return err
			}
			for i, a := range ablations {
				emit(a.name, gputlb.RenderAblation(a.title, tables[i]), tables[i])
			}
			return nil
		}},
		table("balance", gputlb.SMBalance, gputlb.RenderSMBalance),
		table("warp", gputlb.WarpReuse, titled("Future work — warp-granularity intra-warp translation reuse", gputlb.RenderBins)),
	}
}

// all is what -fig all (the default) selects.
var all = []string{"10", "11", "12", "hugepage"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("evaluate: ")

	list := studies()
	names := make([]string, len(list))
	for i, s := range list {
		names[i] = s.name
	}
	var (
		fig       = flag.String("fig", "all", "comma-separated studies to produce: "+strings.Join(names, " | ")+" | all (= "+strings.Join(all, ",")+")")
		bench     = flag.String("bench", "", "comma-separated benchmark subset (default: all)")
		scale     = flag.Float64("scale", 1.0, "workload scale factor")
		seed      = flag.Int64("seed", 1, "workload generation seed")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulation cells (results are identical at any value)")
		cellPar   = flag.Int("cell-parallel", 1, "intra-cell engine: 1 = serial (golden-identical), any N>=2 = sharded epoch-barrier engine (one goroutine per cell, the same result at every N>=2); in-process only, refused with -daemon")
		l2Slices  = flag.Int("l2-slices", 4, "address slices for the sharded engine's barrier (each K its own deterministic serialization); 1 = one slice; ignored when -cell-parallel <= 1")
		jsonOut   = flag.Bool("json", false, "emit the row structs as JSON instead of tables")
		objective = flag.String("objective", "", "partitioning-controller objective for controller cells: ws | fairness | maxmin (default ws)")
		daemon    = flag.String("daemon", "", "run the simulation cells on a gputlbd (or fabric coordinator — same API) at this URL instead of in-process: every simulating study but balance (table2, 3-6 and warp are trace analyses and run locally)")
		out       cliutil.OutputFlags
	)
	out.Register(flag.CommandLine)
	flag.Parse()

	selected := map[string]bool{}
	for _, name := range strings.Split(*fig, ",") {
		switch {
		case name == "all":
			for _, n := range all {
				selected[n] = true
			}
		case slices.Contains(names, name):
			selected[name] = true
		default:
			fmt.Fprintf(os.Stderr, "evaluate: unknown -fig %q (valid: %s, all)\n", name, strings.Join(names, ", "))
			os.Exit(2)
		}
	}

	if _, err := control.ParseObjective(*objective); *objective != "" && err != nil {
		fmt.Fprintf(os.Stderr, "evaluate: -objective: %v\n", err)
		os.Exit(2)
	}

	var benchmarks []string
	if *bench != "" {
		benchmarks = strings.Split(*bench, ",")
	}

	if *daemon != "" {
		if err := out.CheckRemote(); err != nil {
			log.Fatal(err)
		}
		if selected["balance"] {
			log.Fatal("-fig balance needs per-SM counters that daemon cells do not carry; drop -daemon")
		}
		if *cellPar > 1 {
			log.Fatal("-cell-parallel selects the in-process sharded engine; daemon cells run on the serial engine, so drop one of the two")
		}
	}

	stopProfiles, err := out.Start()
	if err != nil {
		log.Fatal(err)
	}

	opt := gputlb.DefaultExperimentOptions()
	opt.Params.Scale = *scale
	opt.Params.Seed = *seed
	opt.Parallelism = *parallel
	opt.CellParallel = *cellPar
	opt.L2Slices = *l2Slices
	opt.Benchmarks = benchmarks
	opt.Objective = *objective
	opt.StatsDump = out.NewStatsDump()
	opt.Tracer = out.NewTracer()
	if *daemon != "" {
		opt.Executor = &jobs.Client{BaseURL: *daemon}
	}

	emit := func(name, table string, rows any) {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]any{name: rows}); err != nil {
				log.Fatal(err)
			}
			return
		}
		fmt.Println(table)
	}
	for _, s := range list {
		if selected[s.name] {
			if err := s.run(opt, emit); err != nil {
				log.Fatal(err)
			}
		}
	}

	if err := out.Export(opt.StatsDump, opt.Tracer); err != nil {
		log.Fatal(err)
	}
	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}
}
