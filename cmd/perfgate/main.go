// Command perfgate measures the simulator's hot-path performance and
// maintains BENCH_sim.json, the repository's machine-readable perf ledger.
// It records two kinds of numbers:
//
//   - the full evaluate sweep (Figures 10/11: 10 benchmarks x 4 configs)
//     as wall-clock seconds and cells/sec, at sweep parallelism 1 and 8;
//   - the per-instruction simulation path (the golden-suite benchmarks under
//     the baseline config) as ns and heap allocations per issued warp
//     instruction.
//
// Modes:
//
//	perfgate -baseline     # pin the pre-optimization numbers (run once)
//	perfgate               # refresh the "current" section after a change
//	perfgate -check        # CI perf smoke: re-measure the per-instruction
//	                       # path only and fail on a >2x allocs/op regression
//	                       # or a >3x ns/inst blowup against the committed
//	                       # "current" numbers
//
// Wall-clock numbers are machine-dependent; the committed file records the
// trajectory on one reference machine. The CI gate keys primarily off
// allocs/op, which is deterministic, plus a deliberately wide (3x) ns/inst
// band that only catches structural hot-path regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"gputlb/internal/arch"
	"gputlb/internal/experiments"
	"gputlb/internal/sim"
	"gputlb/internal/workloads"
)

// perInstBenchmarks is the per-instruction measurement set: one benchmark
// per workload family, matching the golden-stats suite.
var perInstBenchmarks = []string{"bfs", "pagerank", "atax", "3dconv", "nw"}

// Sweep is one evaluate-sweep measurement.
type Sweep struct {
	Seconds     float64 `json:"seconds"`
	Cells       int     `json:"cells"`
	CellsPerSec float64 `json:"cells_per_sec"`
}

// PerInst is the per-instruction hot-path measurement.
type PerInst struct {
	Insts         int64   `json:"insts"`
	NsPerInst     float64 `json:"ns_per_inst"`
	AllocsPerInst float64 `json:"allocs_per_inst"`
	BytesPerInst  float64 `json:"bytes_per_inst"`
}

// PerCellParallel is the sharded intra-cell engine's measurement: the
// phase breakdown of one representative sharded+sliced run (bfs, baseline
// config, golden scale, the default 4 address slices) plus a serial-engine
// run of the same cell as the speedup baseline.
//
// Two projections are recorded. ParallelFrac and Projected8Core come from
// the deterministic event counts — identical on every machine, which is
// what lets a 1-core CI box gate the epoch-barrier work split. The
// parallel section is the shard-local events plus the barrier work the
// address-sliced barrier runs concurrently (the K per-slice passes and the
// per-shard SM passes); the serial section is the cross-slice serial tail
// and the global events (BarrierOps, recorded for the ledger's history, is
// always zero now that every barrier op runs in a slice or SM pass).
// Projected8Core applies Amdahl per phase: shard-local and SM-pass work
// scale with the core count, slice passes with min(K, cores).
// TimeProjected8Core is the wall-clock analogue against the measured
// serial engine — machine-dependent, recorded on the reference machine
// for the ledger.
//
// Before address slicing the projections sat near 2.1-2.7x: the monolithic
// barrier replayed every shared-memory-system transaction in one serial
// merge. Slicing the L2 TLB, L2 cache, walker pools and DRAM channels into
// K independent address slices turns that replay into K concurrent
// passes, leaving only TB dispatch, controller ticks and global events
// serial.
type PerCellParallel struct {
	LocalEvents  int64 `json:"local_events"`
	BarrierOps   int64 `json:"barrier_ops"`
	GlobalEvents int64 `json:"global_events"`
	Epochs       int64 `json:"epochs"`
	// L2Slices is the slice count K of the measured run; SlicedOps counts
	// the barrier ops advanced inside the K concurrent per-slice passes
	// (per slice in SliceOps), SMPassOps the ops applied by the concurrent
	// per-shard SM passes, and SerialOps the cross-slice serial tail.
	L2Slices           int     `json:"l2_slices"`
	SlicedOps          int64   `json:"sliced_ops"`
	SMPassOps          int64   `json:"sm_pass_ops"`
	SerialOps          int64   `json:"serial_ops"`
	SliceOps           []int64 `json:"slice_ops,omitempty"`
	ParallelFrac       float64 `json:"parallel_fraction"`
	Projected8Core     float64 `json:"projected_speedup_8core"`
	LegacySeconds      float64 `json:"legacy_seconds"`
	Phase1Seconds      float64 `json:"phase1_seconds"`
	BarrierSeconds     float64 `json:"barrier_seconds"`
	SlicePassSeconds   float64 `json:"slice_pass_seconds"`
	SMPassSeconds      float64 `json:"sm_pass_seconds"`
	TimeProjected8Core float64 `json:"time_projected_speedup_8core"`
}

// Measurement is one full perfgate run.
type Measurement struct {
	Recorded        string           `json:"recorded"`
	GoMaxProcs      int              `json:"gomaxprocs"`
	EvalParallel1   Sweep            `json:"eval_sweep_parallel1"`
	EvalParallel8   Sweep            `json:"eval_sweep_parallel8"`
	PerInst         PerInst          `json:"per_inst"`
	PerCellParallel *PerCellParallel `json:"per_cell_parallel,omitempty"`
}

// File is the BENCH_sim.json layout: the pinned pre-optimization baseline
// and the latest measurement, so the speedup is auditable from one file.
type File struct {
	Schema   int          `json:"schema"`
	Note     string       `json:"note"`
	Baseline *Measurement `json:"baseline,omitempty"`
	Current  *Measurement `json:"current,omitempty"`
}

const fileNote = "simulator perf ledger: refresh with `make bench-json`; " +
	"`perfgate -check` gates CI on allocs/op"

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfgate: ")

	var (
		out       = flag.String("o", "BENCH_sim.json", "perf ledger file")
		baseline  = flag.Bool("baseline", false, "record this run as the pinned baseline")
		check     = flag.Bool("check", false, "re-measure allocs/op only and fail on >2x regression vs the committed current numbers")
		skipSweep = flag.Bool("skip-sweep", false, "skip the wall-clock sweep (per-instruction numbers only)")
		label     = flag.String("label", time.Now().UTC().Format("2006-01-02"), "label stored in the measurement's recorded field")
	)
	flag.Parse()

	if *check {
		if err := runCheck(*out); err != nil {
			log.Fatal(err)
		}
		return
	}

	f, err := readFile(*out)
	if err != nil {
		log.Fatal(err)
	}
	m := measure(*label, *skipSweep)
	if *baseline {
		f.Baseline = &m
	} else {
		f.Current = &m
	}
	if err := writeFile(*out, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-inst: %.1f ns/inst, %.4f allocs/inst, %.1f B/inst over %d insts\n",
		m.PerInst.NsPerInst, m.PerInst.AllocsPerInst, m.PerInst.BytesPerInst, m.PerInst.Insts)
	if !*skipSweep {
		fmt.Printf("eval sweep: %.2fs at parallelism 1 (%.2f cells/sec), %.2fs at parallelism 8\n",
			m.EvalParallel1.Seconds, m.EvalParallel1.CellsPerSec, m.EvalParallel8.Seconds)
	}
	if f.Baseline != nil && f.Current != nil && f.Baseline.EvalParallel1.Seconds > 0 && f.Current.EvalParallel1.Seconds > 0 {
		fmt.Printf("speedup vs baseline: %.2fx wall-clock (parallelism 1), %.1fx allocs/inst\n",
			f.Baseline.EvalParallel1.Seconds/f.Current.EvalParallel1.Seconds,
			ratio(f.Baseline.PerInst.AllocsPerInst, f.Current.PerInst.AllocsPerInst))
	}
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// runCheck is the CI perf smoke: a quick per-instruction re-measurement
// gated against the committed current allocs/op. Wall clocks are skipped
// (machine-dependent); allocation counts are deterministic.
func runCheck(path string) error {
	f, err := readFile(path)
	if err != nil {
		return err
	}
	if f.Current == nil {
		return fmt.Errorf("%s has no current measurement to gate against (run `make bench-json`)", path)
	}
	committed := f.Current.PerInst.AllocsPerInst
	got := measurePerInst()
	// 2x the committed value, with a small absolute floor so a near-zero
	// committed value does not turn measurement noise into a CI failure.
	limit := 2*committed + 0.25
	fmt.Printf("allocs/inst: measured %.4f, committed %.4f, limit %.4f\n",
		got.AllocsPerInst, committed, limit)
	if got.AllocsPerInst > limit {
		return fmt.Errorf("allocs/op regression: %.4f allocs/inst exceeds %.4f (2x committed %.4f); "+
			"fix the allocation or refresh BENCH_sim.json with `make bench-json` if intentional",
			got.AllocsPerInst, limit, committed)
	}
	// Wall-clock sanity gate: the controller-off per-instruction cost must
	// stay within a wide noise band of the committed reference. 3x absorbs
	// slow CI machines while still catching structural regressions — e.g.
	// churn or controller bookkeeping leaking into the hot path of runs
	// that never enable them.
	if committedNs := f.Current.PerInst.NsPerInst; committedNs > 0 {
		nsLimit := 3 * committedNs
		fmt.Printf("ns/inst: measured %.1f, committed %.1f, limit %.1f\n",
			got.NsPerInst, committedNs, nsLimit)
		if got.NsPerInst > nsLimit {
			return fmt.Errorf("per-inst time regression: %.1f ns/inst exceeds %.1f (3x committed %.1f); "+
				"fix the hot path or refresh BENCH_sim.json with `make bench-json` if intentional",
				got.NsPerInst, nsLimit, committedNs)
		}
	}
	pcp := measurePerCellParallel()
	fmt.Printf("cell-parallel: %.4f parallel fraction (%d local events, %d sliced ops over %d slices, "+
		"%d SM-pass ops, %d serial ops, %d barrier ops, %d global), "+
		"%.2fx count-projected / %.2fx time-projected on 8 cores\n",
		pcp.ParallelFrac, pcp.LocalEvents, pcp.SlicedOps, pcp.L2Slices,
		pcp.SMPassOps, pcp.SerialOps, pcp.BarrierOps, pcp.GlobalEvents,
		pcp.Projected8Core, pcp.TimeProjected8Core)
	if pcp.ParallelFrac < minParallelFrac {
		return fmt.Errorf("cell-parallel regression: parallel fraction %.4f below the %.2f floor — "+
			"too much work moved from the shards to the serial barrier", pcp.ParallelFrac, minParallelFrac)
	}
	if pcp.Projected8Core < minProjected8Core {
		return fmt.Errorf("cell-parallel regression: projected 8-core speedup %.2fx below the %.1fx floor "+
			"(parallel fraction %.4f) — too much work moved from the shards to the serial barrier",
			pcp.Projected8Core, minProjected8Core, pcp.ParallelFrac)
	}
	fmt.Println("perf gate OK")
	return nil
}

// minProjected8Core and minParallelFrac are the CI floors for the sharded
// engine's deterministic Amdahl projection and work split, measured with
// the address-sliced barrier at its default 4 slices. The sliced barrier
// moves the L2 TLB/cache/walker/DRAM replay from one serial merge into K
// concurrent per-slice passes, which lifts the representative bfs cell
// well past the old monolithic ceiling (0.607 fraction, 2.13x projection);
// the floors are pinned under the measured sliced values so any structural
// regression that shifts work back into the serial section fails CI.
const (
	minProjected8Core = 3.0
	minParallelFrac   = 0.70
)

func measure(label string, skipSweep bool) Measurement {
	pcp := measurePerCellParallel()
	m := Measurement{
		Recorded:        label,
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		PerInst:         measurePerInst(),
		PerCellParallel: &pcp,
	}
	if !skipSweep {
		m.EvalParallel1 = measureEval(1)
		m.EvalParallel8 = measureEval(8)
	}
	return m
}

// measurePerCellParallel runs the representative cell on both engines and
// derives the projections described on PerCellParallel. The sharded run
// uses two workers and the default 4 address slices: the event counts are
// identical at every worker count, and two workers keep the phase-1 wall
// clock close to the actual shard work on small machines (more workers
// only add scheduler ping-pong there).
func measurePerCellParallel() PerCellParallel {
	spec, ok := workloads.ByName("bfs")
	if !ok {
		log.Fatal("unknown benchmark bfs")
	}
	k, as := workloads.Cached(spec, workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2})

	serial, err := sim.New(arch.Default(), k, as)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	serial.Run()
	legacySecs := time.Since(start).Seconds()

	s, err := sim.New(arch.Default(), k, as)
	if err != nil {
		log.Fatal(err)
	}
	s.SetCellParallel(2)
	s.SetL2Slices(4)
	s.Run()
	p := s.Profile()
	slices := s.L2Slices()

	// Deterministic work split. Parallel: shard-local events plus the
	// barrier ops the sliced barrier advances concurrently (slice passes
	// scale with min(K, cores), SM passes with the shard count). Serial:
	// the cross-slice tail and globals (BarrierOps is always zero).
	parallelOps := p.LocalEvents + p.SlicedOps + p.SMPassOps
	serialOps := p.BarrierOps + p.SerialOps + p.GlobalEvents
	total := parallelOps + serialOps
	var frac, proj float64
	if total > 0 {
		frac = float64(parallelOps) / float64(total)
		sliceWays := float64(min(slices, 8))
		denom := float64(serialOps)/float64(total) +
			float64(p.LocalEvents)/float64(total)/8 +
			float64(p.SlicedOps)/float64(total)/sliceWays +
			float64(p.SMPassOps)/float64(total)/8
		if denom > 0 {
			proj = 1 / denom
		}
	}

	// Wall-clock analogue: phase 1 and the SM passes scale with the core
	// count, the slice passes with min(K, cores); the rest of the barrier
	// stays serial.
	var timeProj float64
	serialBarrier := p.BarrierSeconds - p.SlicePassSeconds - p.SMPassSeconds
	if serialBarrier < 0 {
		serialBarrier = 0
	}
	if denom := p.Phase1Seconds/8 + p.SlicePassSeconds/float64(min(slices, 8)) +
		p.SMPassSeconds/8 + serialBarrier; denom > 0 {
		timeProj = legacySecs / denom
	}
	return PerCellParallel{
		LocalEvents:        p.LocalEvents,
		BarrierOps:         p.BarrierOps,
		GlobalEvents:       p.GlobalEvents,
		Epochs:             p.Epochs,
		L2Slices:           slices,
		SlicedOps:          p.SlicedOps,
		SMPassOps:          p.SMPassOps,
		SerialOps:          p.SerialOps,
		SliceOps:           p.SliceOps,
		ParallelFrac:       frac,
		Projected8Core:     proj,
		LegacySeconds:      legacySecs,
		Phase1Seconds:      p.Phase1Seconds,
		BarrierSeconds:     p.BarrierSeconds,
		SlicePassSeconds:   p.SlicePassSeconds,
		SMPassSeconds:      p.SMPassSeconds,
		TimeProjected8Core: timeProj,
	}
}

// measureEval times the full Figure 10/11 evaluate sweep at the given
// parallelism. The trace cache is cleared first so every measurement pays
// the same first-build cost the real CLI run pays.
func measureEval(parallelism int) Sweep {
	workloads.ClearTraceCache()
	opt := experiments.DefaultOptions()
	opt.Parallelism = parallelism
	start := time.Now()
	rows, err := experiments.Eval(opt)
	if err != nil {
		log.Fatal(err)
	}
	secs := time.Since(start).Seconds()
	cells := 4 * len(rows)
	return Sweep{Seconds: secs, Cells: cells, CellsPerSec: float64(cells) / secs}
}

// measurePerInst runs the golden-suite benchmarks under the baseline config
// and reports time and heap allocations per issued warp instruction. Kernel
// construction happens outside the measured window: this is the simulate
// hot path, not the workload generators.
func measurePerInst() PerInst {
	type cell struct {
		s *sim.Simulator
	}
	params := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2}
	cfg := arch.Default()
	var cells []cell
	for _, name := range perInstBenchmarks {
		spec, ok := workloads.ByName(name)
		if !ok {
			log.Fatalf("unknown benchmark %q", name)
		}
		k, as := workloads.Cached(spec, params)
		s, err := sim.New(cfg, k, as)
		if err != nil {
			log.Fatal(err)
		}
		cells = append(cells, cell{s})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var insts int64
	for _, c := range cells {
		r := c.s.Run()
		insts += r.InstsIssued
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	return PerInst{
		Insts:         insts,
		NsPerInst:     float64(elapsed.Nanoseconds()) / float64(insts),
		AllocsPerInst: float64(mallocs) / float64(insts),
		BytesPerInst:  float64(bytes) / float64(insts),
	}
}

func readFile(path string) (File, error) {
	f := File{Schema: 1, Note: fileNote}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("parsing %s: %w", path, err)
	}
	f.Schema = 1
	f.Note = fileNote
	return f, nil
}

func writeFile(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
