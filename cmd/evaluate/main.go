// Command evaluate regenerates the paper's evaluation: Figures 10 and 11
// (hit rates and normalized execution time under the four configurations),
// Figure 12 (combination with TLB compression), the huge-page study, the
// multi-tenant co-run interference grid, and the design-space ablations
// (sharing counter/all-to-all, TB throttling, warp-granularity reuse).
//
// Examples:
//
//	evaluate                 # figures 10-12 and the huge-page study
//	evaluate -fig 11
//	evaluate -fig multi -bench bfs,atax
//	evaluate -fig ablations
//	evaluate -daemon http://localhost:8372 -fig 11   # run on a gputlbd
//
// With -daemon every simulating figure sends its cells to the daemon and
// renders exactly what an in-process run renders. The URL may equally
// point at a fabric coordinator (gputlbd -coordinator): the /jobs API is
// identical and the distributed run's result artifact is byte-identical
// to a single daemon's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"gputlb"
	"gputlb/internal/cliutil"
	"gputlb/internal/jobs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evaluate: ")

	var (
		fig       = flag.String("fig", "all", "what to produce: 10 | 11 | 12 | hugepage | multi | churn | mech | ablations | warp | balance | seeds | all")
		bench     = flag.String("bench", "", "comma-separated benchmark subset (default: all)")
		scale     = flag.Float64("scale", 1.0, "workload scale factor")
		seed      = flag.Int64("seed", 1, "workload generation seed")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulation cells (results are identical at any value)")
		cellPar   = flag.Int("cell-parallel", 1, "intra-cell engine: 1 = serial (golden-identical), N>=2 = sharded epoch-barrier engine with up to N workers per cell (bit-identical at any N>=2)")
		l2Slices  = flag.Int("l2-slices", 4, "address slices for the sharded engine's barrier (bit-identical at any worker count for fixed K); 1 = one slice; ignored when -cell-parallel <= 1")
		jsonOut   = flag.Bool("json", false, "emit the row structs as JSON instead of tables")
		objective = flag.String("objective", "", "partitioning-controller objective for controller cells: ws | fairness | maxmin (default ws)")
		daemon    = flag.String("daemon", "", "run the simulation cells on a gputlbd (or fabric coordinator — same API) at this URL instead of in-process: figs 10/11/12/hugepage/multi/churn/mech/seeds (warp is a trace analysis and runs locally; ablations and balance run in-process only)")
		out       cliutil.OutputFlags
	)
	out.Register(flag.CommandLine)
	flag.Parse()

	var benchmarks []string
	if *bench != "" {
		benchmarks = strings.Split(*bench, ",")
	}

	if *daemon != "" {
		if err := out.CheckRemote(); err != nil {
			log.Fatal(err)
		}
		if *fig == "ablations" || *fig == "balance" {
			log.Fatalf("-fig %s sweeps unnamed configurations that only run in-process; drop -daemon", *fig)
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

	want := func(name string) bool { return *fig == "all" || *fig == name }
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

	if want("10") || want("11") {
		rows, err := gputlb.Eval(opt)
		if err != nil {
			log.Fatal(err)
		}
		if want("10") {
			emit("fig10", gputlb.RenderFig10(rows), rows)
		}
		if want("11") {
			emit("fig11", gputlb.RenderFig11(rows), rows)
		}
	}
	if want("12") {
		rows, err := gputlb.Fig12(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("fig12", gputlb.RenderFig12(rows), rows)
	}
	if want("hugepage") {
		rows, err := gputlb.HugePages(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("hugepage", gputlb.RenderHugePages(rows), rows)
	}
	if *fig == "multi" {
		// Not part of -fig all: the co-run grid is all benchmark pairs x
		// 12 configurations and dwarfs the single-kernel figures.
		rows, err := gputlb.MultiGrid(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("multi", gputlb.RenderMulti(rows), rows)
	}
	if *fig == "churn" {
		// Not part of -fig all for the same reason: all pairs x the L2 TLB
		// tenancy axis, each cell with mid-run tenant arrivals.
		rows, err := gputlb.ChurnGrid(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("churn", gputlb.RenderChurn(rows), rows)
	}
	if *fig == "mech" {
		// Not part of -fig all: the mechanism study spans benchmarks x
		// mechanisms solo plus every pair x mechanism co-run.
		rows, err := gputlb.MechEval(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit("mech", gputlb.RenderMechEval(rows), rows)
		if len(benchmarks) != 1 {
			mrows, err := gputlb.MechMulti(opt)
			if err != nil {
				log.Fatal(err)
			}
			emit("mech-multi", gputlb.RenderMechMulti(mrows), mrows)
		}
	}
	if *fig == "seeds" {
		rows, err := gputlb.SeedSweep(opt, []int64{1, 2, 3})
		if err != nil {
			log.Fatal(err)
		}
		emit("seeds", gputlb.RenderSeedSweep(rows), rows)
	}
	if *fig == "ablations" {
		rows, err := gputlb.AblationSharing(opt, []int{4, 16})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderAblation(
			"Ablation — sharing activation: counter thresholds and all-to-all vs the 1-bit adjacent flag", rows))
		rows, err = gputlb.AblationThrottle(opt, []int{4, 8})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderAblation(
			"Ablation — TB throttling combined with the proposal (§IV-A extension)", rows))
		rows, err = gputlb.AblationWarpSched(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderAblation(
			"Ablation — warp schedulers under the proposal (vs GTO; 'translation-aware' is the paper's future work)", rows))
		rows, err = gputlb.AblationPWC(opt, 64)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderAblation(
			"Ablation — 64-entry page-walk cache (vs the same config without one)", rows))
		rows, err = gputlb.AblationReplacement(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderAblation(
			"Ablation — TLB replacement policies under the proposal (vs LRU)", rows))
	}
	if *fig == "balance" {
		rows, err := gputlb.SMBalance(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderSMBalance(rows))
	}
	if *fig == "warp" {
		rows, err := gputlb.WarpReuse(opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(gputlb.RenderBins(
			"Future work — warp-granularity intra-warp translation reuse", rows))
	}

	if err := out.Export(opt.StatsDump, opt.Tracer); err != nil {
		log.Fatal(err)
	}
	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}
}
