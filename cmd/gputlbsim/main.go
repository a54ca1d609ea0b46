// Command gputlbsim runs one benchmark of the suite under one configuration
// of the simulated GPU and prints the translation and execution statistics.
//
// -policy names the machine as a figure or a gputlbd job cell does (any of
// experiments.ConfigNames), -mech and -alloc set its mechanism and
// allocator, and -config, then -l1entries and -pagesize when given,
// override it. -printconfig prints it as JSON that -config reads back.
//
// Examples:
//
//	gputlbsim -bench bfs                            # baseline (Table III)
//	gputlbsim -bench atax -policy sched+part+share  # the full proposal
//	gputlbsim -bench gemm -policy ours-2M           # the proposal on 2MB pages
//	gputlbsim -bench mvt -json                      # machine-readable results
//	gputlbsim -trace atax.trace                     # replay an exported trace
//	gputlbsim -printconfig -policy sched > m.json   # the machine, editable...
//	gputlbsim -bench bfs -config m.json             # ...and run back
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"gputlb"
	"gputlb/internal/cliutil"
	"gputlb/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gputlbsim: ")

	var (
		bench       = flag.String("bench", "", "benchmark to run (one of: "+strings.Join(gputlb.WorkloadNames(), ", ")+")")
		policy      = flag.String("policy", "baseline", "configuration name: "+strings.Join(gputlb.ConfigNames(), " | "))
		scale       = flag.Float64("scale", 1.0, "workload scale factor")
		seed        = flag.Int64("seed", 1, "workload generation seed")
		pagesize    = flag.String("pagesize", "4k", "page size: 4k | 2m; overrides -policy and -config only when given")
		mech        = flag.String("mech", "", "translation mechanism for both TLB levels: "+strings.Join(gputlb.MechNames(), " | ")+" (default base; compressed is the PACT'20 comparator)")
		alloc       = flag.String("alloc", "", "UVM frame allocation: firsttouch | contig (default firsttouch; contig feeds -mech largereach)")
		l1entries   = flag.Int("l1entries", 64, "L1 TLB entries per SM; overrides -policy and -config only when given")
		printconfig = flag.Bool("printconfig", false, "print the effective machine configuration as JSON (the -config format) and exit")
		jsonOut     = flag.Bool("json", false, "emit results as JSON")
		tracePath   = flag.String("trace", "", "replay a binary kernel trace instead of building a benchmark")
		configPath  = flag.String("config", "", "overlay a JSON machine configuration (as -printconfig prints it) on the -policy config")
		cellPar     = flag.Int("cell-parallel", 1, "intra-cell engine: 1 = serial (golden-identical), N>=2 = sharded epoch-barrier engine with up to N workers (bit-identical at any N>=2)")
		l2Slices    = flag.Int("l2-slices", 4, "address slices for the sharded engine's barrier: K>1 splits L2 TLB/cache sets, walkers and DRAM channels into K slices applied concurrently (bit-identical at any worker count for fixed K); 1 = one slice; ignored when -cell-parallel <= 1")
		outputs     cliutil.OutputFlags
	)
	outputs.Register(flag.CommandLine)
	flag.Parse()

	if *bench == "" && *tracePath == "" && !*printconfig {
		flag.Usage()
		os.Exit(2)
	}

	// The machine passes the checks a daemon cell does; a replayed trace
	// (or a bare -printconfig) has no benchmark to check.
	cell := experiments.CellSpec{Bench: *bench, Config: *policy, Scale: *scale, Seed: *seed, Mech: *mech, Alloc: *alloc}
	if *tracePath == "" && *bench != "" {
		if err := cell.Validate(); err != nil {
			log.Fatal(err)
		}
	}
	cfg, err := cell.Machine()
	if err != nil {
		log.Fatal(err)
	}
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			log.Fatalf("parsing %s: %v", *configPath, err)
		}
	}
	// Flags the command line gives override the -config file; defaults do not.
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if given["l1entries"] {
		cfg.L1TLB.Entries = *l1entries
	}
	if given["pagesize"] {
		switch *pagesize {
		case "4k":
			cfg.PageSize = gputlb.PageSize4K
		case "2m":
			cfg.PageSize = gputlb.PageSize2M
		default:
			log.Fatalf("unknown page size %q", *pagesize)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if *printconfig {
		if err := enc.Encode(cfg); err != nil {
			log.Fatal(err)
		}
		return
	}
	pages := "4k"
	if cfg.PageSize == gputlb.PageSize2M {
		pages = "2m"
	}

	p := gputlb.DefaultParams()
	p.Scale = *scale
	p.Seed = *seed
	p.PageShift = cfg.PageShift()

	stopProfiles, err := outputs.Start()
	if err != nil {
		log.Fatal(err)
	}

	var k *gputlb.Kernel
	var as *gputlb.AddressSpace
	name := *bench
	if *tracePath != "" {
		f, ferr := os.Open(*tracePath)
		if ferr != nil {
			log.Fatal(ferr)
		}
		var kerr error
		k, kerr = gputlb.ReadKernelTrace(f)
		f.Close()
		if kerr != nil {
			log.Fatal(kerr)
		}
		name = k.Name + " (trace)"
		as = gputlb.NewAddressSpace(p.PageShift, p.Seed)
	} else {
		var berr error
		k, as, berr = gputlb.Build(*bench, p)
		if berr != nil {
			log.Fatal(berr)
		}
	}

	s, err := gputlb.NewSimulator(cfg, k, as)
	if err != nil {
		log.Fatal(err)
	}
	tracer := outputs.NewTracer()
	if tracer != nil {
		s.SetTracer(tracer, 0)
	}
	s.SetCellParallel(*cellPar)
	s.SetL2Slices(*l2Slices)
	res := s.Run()

	// A single run exports its stats Snapshot directly rather than a
	// sweep-shaped StatsDump, so -stats-out bypasses Export here.
	if outputs.StatsOut != "" {
		if err := cliutil.ExportSnapshot(outputs.StatsOut, res.Stats); err != nil {
			log.Fatal(err)
		}
	}
	if outputs.TraceOut != "" {
		if err := cliutil.ExportTrace(outputs.TraceOut, tracer); err != nil {
			log.Fatal(err)
		}
	}
	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		out := struct {
			Benchmark string
			Policy    string
			Scale     float64
			PageSize  string
			Result    gputlb.Result
		}{name, *policy, *scale, pages, res}
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("benchmark        %s (policy %s, scale %.2f, %s pages)\n", name, *policy, *scale, pages)
	fmt.Printf("execution        %d cycles\n", res.Cycles)
	fmt.Printf("L1 TLB hit rate  %.3f (mean across SMs; %d hits / %d accesses)\n",
		res.L1TLBHitRate, res.L1TLBHits(), res.L1TLBAccesses())
	fmt.Printf("L2 TLB           %.3f hit rate (%d accesses)\n", res.L2TLB.HitRate(), res.L2TLB.Accesses)
	fmt.Printf("page walks       %d (%d UVM first-touch faults)\n", res.Walks, res.Faults)
	fmt.Printf("L1 cache         %.3f hit rate; L2 cache %.3f\n", res.L1Cache.HitRate(), res.L2Cache.HitRate())
	fmt.Printf("instructions     %d issued, %d line requests, %d translation requests\n",
		res.InstsIssued, res.LineRequests, res.PageRequests)
	fmt.Printf("TBs per SM       %v\n", res.TBsPerSM)
	fmt.Printf("NoC stalls       %d; DRAM row hits %d / misses %d\n",
		res.NoCStalls, res.DRAMRowHits, res.DRAMRowMisses)
	fmt.Printf("translation latency histogram (cycles: count):\n")
	for b, c := range res.TranslationLatency {
		if c == 0 {
			continue
		}
		fmt.Printf("  <=2^%-2d %9d\n", b+1, c)
	}
}
