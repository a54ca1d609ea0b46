package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"gputlb/internal/arch"
	"gputlb/internal/experiments"
	"gputlb/internal/metrics"
	"gputlb/internal/sim"
	"gputlb/internal/trace"
	"gputlb/internal/workloads"
)

// paperGeomeans are the DAC'23 paper's Figure 11 geomeans of normalized
// execution time: sched, sched+part, sched+part+share.
var paperGeomeans = [3]float64{0.977, 1.143, 0.875}

// evalConfigs are the four Figure 10/11 configurations, in Eval's order.
var evalConfigs = []struct {
	label string
	cfg   func() arch.Config
}{
	{"baseline", experiments.BaselineConfig},
	{"sched", experiments.SchedConfig},
	{"sched+part", experiments.PartConfig},
	{"sched+part+share", experiments.ShareConfig},
}

// walkBound are the scan kernels on which the paper's full proposal must
// beat the baseline.
var walkBound = []string{"atax", "bicg", "mvt", "nw"}

// kernelInsts counts a trace's warp instructions.
func kernelInsts(k *trace.Kernel) int64 {
	var n int64
	for _, tb := range k.TBs {
		for _, w := range tb.Warps {
			n += int64(len(w.Insts))
		}
	}
	return n
}

// buildTraces empties the trace cache and builds every named benchmark,
// one span each. It returns the warp instructions built and the time taken.
func buildTraces(rec *recorder, parent int, names []string, p workloads.Params) (int64, interval, error) {
	workloads.ClearTraceCache()
	id := rec.begin(parent, "bench", "setup: trace builds", 0, 0)
	defer rec.end(id)
	clk := startClock()
	var insts int64
	for _, name := range names {
		sp := rec.begin(id, "workloads", "workloads.Cached "+name, 0, 0)
		k, _, ok := workloads.CachedByName(name, p)
		rec.end(sp)
		if !ok {
			return 0, interval{}, fmt.Errorf("unknown benchmark %q", name)
		}
		insts += kernelInsts(k)
	}
	return insts, clk.stop(), nil
}

// sweep is one repro-sweep iteration's outcome.
type sweep struct {
	setup, wall interval
	builtInsts  int64
	insts       int64 // simulated warp instructions issued
	rows        []experiments.EvalRow
	digest      string          // hash of every cell's full stats tree
	done        []time.Duration // Progress timestamps, since the sweep began
}

// runSweep builds the traces and runs the Figure 10/11 grid once.
func runSweep(r *run, rec *recorder, parent int) (sweep, error) {
	var sw sweep
	p := workloads.DefaultParams()
	var err error
	sw.builtInsts, sw.setup, err = buildTraces(rec, parent, workloads.Names(), p)
	if err != nil {
		return sw, err
	}
	dump := &experiments.StatsDump{}
	t0 := time.Now()
	clk := startClock()
	opt := experiments.Options{
		Params:      p,
		Parallelism: workers,
		StatsDump:   dump,
		Progress:    func(done, total int) { sw.done = append(sw.done, time.Since(t0)) },
	}
	id := rec.begin(parent, "experiments", "experiments.Eval", 0, 0)
	sw.rows, err = experiments.Eval(opt)
	rec.end(id)
	sw.wall = clk.stop()
	r.attempted += int64(len(workloads.Names()) * len(evalConfigs))
	if err != nil {
		r.failed += int64(len(workloads.Names()) * len(evalConfigs))
		return sw, fmt.Errorf("experiments.Eval: %w", err)
	}
	h := sha256.New()
	for _, row := range dump.Rows() {
		n, _ := row.Stats.CounterAt("insts_issued")
		sw.insts += n
		for _, fv := range row.Stats.Flatten("") {
			fmt.Fprintf(h, "%s %s %s %s\n", row.Bench, row.Config, fv.Path, fv.Value)
		}
	}
	sw.digest = hex.EncodeToString(h.Sum(nil))
	return sw, nil
}

// fig11Geomeans returns the sched, sched+part and sched+part+share
// geomeans of normalized execution time.
func fig11Geomeans(rows []experiments.EvalRow) ([3]float64, error) {
	var g [3]float64
	var cols [3][]float64
	for _, row := range rows {
		cols[0] = append(cols[0], row.NormSched())
		cols[1] = append(cols[1], row.NormPart())
		cols[2] = append(cols[2], row.NormShare())
	}
	for i := range cols {
		v, err := metrics.Geomean(cols[i])
		if err != nil {
			return g, err
		}
		g[i] = v
	}
	return g, nil
}

// paperGap is the mean absolute distance of the three Figure 11 geomeans
// from the paper's, in percent of normalized time.
func paperGap(g [3]float64) float64 {
	var s float64
	for i := range g {
		s += math.Abs(g[i] - paperGeomeans[i])
	}
	return s / 3 * 100
}

// checkSweep asserts the paper's directions: the scheduler alone lowers the
// geomean, and the full proposal beats the baseline on the scan kernels.
func (r *run) checkSweep(sw sweep) [3]float64 {
	g, err := fig11Geomeans(sw.rows)
	r.check(err == nil, "Figure 11 geomean: %v", err)
	r.check(g[0] < 1, "sched geomean %.3f is not below 1", g[0])
	for _, row := range sw.rows {
		if slices.Contains(walkBound, row.Bench) {
			r.check(row.CyclesShare < row.CyclesBase, "%s: sched+part+share %d cycles, not below baseline %d",
				row.Bench, row.CyclesShare, row.CyclesBase)
		}
	}
	r.check(sw.insts == sw.builtInsts*int64(len(evalConfigs)),
		"sweep issued %d warp instructions, want %d (4 configs x %d built)", sw.insts, sw.builtInsts*int64(len(evalConfigs)), sw.builtInsts)
	return g
}

// reproSweep is the paper reproduction a user runs: the 40-cell Figure
// 10/11 grid on the serial engine, with traces rebuilt every iteration.
func reproSweep(r *run) error {
	if r.traced {
		return reproSweepTraced(r)
	}
	var first sweep
	for iter := 0; r.more(iter); iter++ {
		sw, err := runSweep(r, nil, 0)
		if err != nil {
			return err
		}
		g := r.checkSweep(sw)
		if iter == 0 {
			first = sw
			fmt.Printf("{\"fig11_geomeans\": [%.3f, %.3f, %.3f], \"paper_gap_pct\": %.4f, \"stats_digest\": %q}\n",
				g[0], g[1], g[2], paperGap(g), sw.digest)
		}
		r.check(sw.digest == first.digest, "iteration %d: simulated stats differ from iteration 0", iter)
		r.sampleTime("wall_s", sw.wall)
		r.sampleTime("setup_s", sw.setup)
		r.sample("sim_minst_per_s", float64(sw.insts)/sw.wall.secs()/1e6)
	}
	return r.sampleSelfRSS()
}

// sampleSelfRSS records the benchmark process's own peak resident set and
// reports the run's medians.
func (r *run) sampleSelfRSS() error {
	mb, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.sample("peak_rss_mb", mb)
	r.setMedians()
	return nil
}

// reproSweepTraced is the traced repro-sweep run: one untraced sweep for
// the overhead reference, the same sweep traced, then each cell alone
// around Simulator.Run, then the component probes.
func reproSweepTraced(r *run) error {
	plain, err := runSweep(r, nil, 0)
	if err != nil {
		return err
	}
	rec := newRecorder()
	root := rec.begin(0, "bench", "repro-sweep", 0, 0)
	sw, err := runSweep(r, rec, root)
	if err != nil {
		return err
	}
	g := r.checkSweep(sw)
	r.check(sw.digest == plain.digest, "traced sweep's simulated stats differ from the untraced sweep's")
	r.set("trace.overhead_frac", (sw.setup.secs()+sw.wall.secs())/(plain.setup.secs()+plain.wall.secs())-1)
	r.set("experiments.paper_gap_pct", paperGap(g))
	r.set("workloads.build_s", sw.setup.secs())
	r.set("workloads.insts", float64(sw.builtInsts))

	// Parallel-pool tail: the time after fewer than `workers` cells remain.
	total := len(sw.done)
	if total >= workers {
		r.set("parallel.tail_s", sw.wall.wall-sw.done[total-workers].Seconds())
	}

	cells, err := cellsAlone(r, rec, root, sw.rows)
	if err != nil {
		return err
	}
	r.set("parallel.busy_frac", cells.seconds/(workers*sw.wall.wall))
	r.set("sim.ns_per_inst", cells.seconds/float64(cells.insts)*1e9)
	r.set("sim.cell_s.max", cells.maxSeconds)
	cells.counts.report(r)

	if err := runProbes(r, rec, root); err != nil {
		return err
	}
	return r.finishTrace(rec, root)
}

// aloneCells is the outcome of running a set of cells one at a time.
type aloneCells struct {
	seconds, maxSeconds float64
	insts               int64
	counts              simCounts
}

// cellsAlone runs every Figure 10/11 cell by itself around
// Simulator.Run, and checks each matches the sweep's row.
func cellsAlone(r *run, rec *recorder, parent int, rows []experiments.EvalRow) (aloneCells, error) {
	var out aloneCells
	p := workloads.DefaultParams()
	id := rec.begin(parent, "bench", "cells alone", 0, 0)
	defer rec.end(id)
	cell := 0
	for _, row := range rows {
		want := []int64{row.CyclesBase, row.CyclesSched, row.CyclesPart, row.CyclesShare}
		for ci, c := range evalConfigs {
			cell++
			// Every cell demand-pages its own fork of the address space.
			k, as, ok := workloads.CachedByName(row.Bench, p)
			if !ok {
				return out, fmt.Errorf("unknown benchmark %q", row.Bench)
			}
			s, err := sim.New(c.cfg(), k, as)
			r.attempted++
			if err != nil {
				r.failed++
				return out, fmt.Errorf("%s [%s]: %w", row.Bench, c.label, err)
			}
			sp := rec.begin(id, "sim", "sim.Run "+row.Bench+" "+c.label, cell, 0)
			t0 := time.Now()
			res := s.Run()
			secs := time.Since(t0).Seconds()
			rec.end(sp)
			r.check(int64(res.Cycles) == want[ci], "%s [%s] alone: %d cycles, sweep had %d", row.Bench, c.label, res.Cycles, want[ci])
			out.seconds += secs
			out.maxSeconds = math.Max(out.maxSeconds, secs)
			out.insts += res.InstsIssued
			out.counts.add(res)
		}
	}
	return out, nil
}

// simCounts pools the simulated counters of several results.
type simCounts struct {
	l1TLBHits, l1TLBAcc int64
	l2TLBHits, l2TLBAcc int64
	walks, faults       int64
	l1Hits, l1Acc       int64
	l2Hits, l2Acc       int64
	nocStalls           int64
	rowHits, rowMisses  int64
	cycles              int64
}

func (c *simCounts) add(res sim.Result) {
	c.l1TLBHits += res.L1TLBHits()
	c.l1TLBAcc += res.L1TLBAccesses()
	c.l2TLBHits += res.L2TLB.Hits
	c.l2TLBAcc += res.L2TLB.Accesses
	c.walks += res.Walks
	c.faults += res.Faults
	c.l1Hits += res.L1Cache.Hits
	c.l1Acc += res.L1Cache.Accesses
	c.l2Hits += res.L2Cache.Hits
	c.l2Acc += res.L2Cache.Accesses
	c.nocStalls += res.NoCStalls
	c.rowHits += res.DRAMRowHits
	c.rowMisses += res.DRAMRowMisses
	c.cycles += int64(res.Cycles)
}

// report sets the simulated per-layer counts. A speed-only change must
// leave every one of them exactly equal.
func (c simCounts) report(r *run) {
	r.set("tlb.l1_hit_rate", ratio(float64(c.l1TLBHits), float64(c.l1TLBAcc)))
	r.set("tlb.l2_hit_rate", ratio(float64(c.l2TLBHits), float64(c.l2TLBAcc)))
	r.set("vm.walks", float64(c.walks))
	r.set("vm.faults", float64(c.faults))
	r.set("cache.l1_hit_rate", ratio(float64(c.l1Hits), float64(c.l1Acc)))
	r.set("cache.l2_hit_rate", ratio(float64(c.l2Hits), float64(c.l2Acc)))
	r.set("noc.stalls", float64(c.nocStalls))
	r.set("dram.row_hit_rate", ratio(float64(c.rowHits), float64(c.rowHits+c.rowMisses)))
	r.set("sim.cycles", float64(c.cycles))
	fmt.Fprintf(os.Stderr, "perfbench: simulated counts %+v\n", c)
}
