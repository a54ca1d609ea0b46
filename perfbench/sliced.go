package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"time"

	"gputlb/internal/arch"
	"gputlb/internal/experiments"
	"gputlb/internal/multi"
	"gputlb/internal/sim"
	"gputlb/internal/workloads"
)

// l2Slices is the address-slice count of the sliced barrier.
const l2Slices = 4

// slicedCells are the solo cells of the sliced-cell workload: a hit-heavy
// graph kernel and a walk-heavy scan kernel, each under the baseline and
// the full proposal.
var slicedCells = []struct {
	bench, label string
	cfg          func() arch.Config
}{
	{"bfs", "baseline", experiments.BaselineConfig},
	{"bfs", "sched+part+share", experiments.ShareConfig},
	{"atax", "baseline", experiments.BaselineConfig},
	{"atax", "sched+part+share", experiments.ShareConfig},
}

// coRunPair is the two-tenant churn co-run; each benchmark arrives a second
// time mid-run, the experiments' churn pattern.
var coRunPair = []string{"mis", "pagerank"}

// coRunOptions configures the co-run under the online partitioning
// controller on the given engine.
func coRunOptions(cellParallel, slices int) multi.Options {
	base := experiments.BaselineConfig()
	return multi.Options{
		Base:         &base,
		Params:       workloads.DefaultParams(),
		TLBMode:      multi.TLBControllerMode,
		CellParallel: cellParallel,
		L2Slices:     slices,
		Churn: &multi.Churn{
			QueueCap: experiments.ChurnQueueCap,
			Arrivals: []multi.Arrival{
				{Bench: coRunPair[0], At: experiments.ChurnFirstArrival},
				{Bench: coRunPair[1], At: experiments.ChurnSecondArrival},
			},
		},
	}
}

// slicedIter is one sliced-cell iteration's outcome.
type slicedIter struct {
	setup, wall interval
	corunSecs   float64
	insts       int64
	digest      string
	results     []sim.Result // solo cells, then the co-run
	profiles    []sim.ShardProfile
}

// runSliced builds the traces and runs every cell of the workload once on
// the sharded engine with the address-sliced barrier.
func runSliced(r *run, rec *recorder, parent int) (slicedIter, error) {
	var it slicedIter
	p := workloads.DefaultParams()
	names := []string{"bfs", "atax", coRunPair[0], coRunPair[1]}
	var err error
	if _, it.setup, err = buildTraces(rec, parent, names, p); err != nil {
		return it, err
	}
	h := sha256.New()
	clk := startClock()
	for i, c := range slicedCells {
		k, as, _ := workloads.CachedByName(c.bench, p)
		s, err := sim.New(c.cfg(), k, as)
		r.attempted++
		if err != nil {
			r.failed++
			return it, fmt.Errorf("%s [%s]: %w", c.bench, c.label, err)
		}
		s.SetCellParallel(workers)
		s.SetL2Slices(l2Slices)
		sp := rec.begin(parent, "engine", "sim.Run sliced "+c.bench+" "+c.label, i+1, 0)
		res := s.Run()
		rec.end(sp)
		r.check(res.InstsIssued == kernelInsts(k), "%s [%s]: issued %d warp instructions, trace has %d",
			c.bench, c.label, res.InstsIssued, kernelInsts(k))
		r.check(s.L2Slices() == l2Slices, "%s [%s]: ran with %d slices, want %d", c.bench, c.label, s.L2Slices(), l2Slices)
		it.results = append(it.results, res)
		it.profiles = append(it.profiles, s.Profile())
		it.insts += res.InstsIssued
		hashResult(h, c.bench+" "+c.label, res)
	}
	sp := rec.begin(parent, "multi", "multi.CoRun "+coRunPair[0]+"+"+coRunPair[1], len(slicedCells)+1, 0)
	tc := time.Now()
	res, err := multi.CoRun(coRunPair, coRunOptions(workers, l2Slices))
	it.corunSecs = time.Since(tc).Seconds()
	rec.end(sp)
	r.attempted++
	if err != nil {
		r.failed++
		return it, fmt.Errorf("co-run: %w", err)
	}
	it.wall = clk.stop()
	var ran int64
	for _, tn := range res.Tenants {
		ran += tn.InstsIssued
	}
	r.check(ran == res.InstsIssued, "co-run: tenants issued %d warp instructions, cell counts %d", ran, res.InstsIssued)
	it.results = append(it.results, res)
	it.insts += res.InstsIssued
	hashResult(h, "corun", res)
	it.digest = hex.EncodeToString(h.Sum(nil))
	return it, nil
}

// hashResult adds a result's full stats tree to a digest.
func hashResult(h io.Writer, label string, res sim.Result) {
	for _, fv := range res.Stats.Flatten("") {
		fmt.Fprintf(h, "%s %s %s\n", label, fv.Path, fv.Value)
	}
}

// slicedCell runs a few large cells on the sharded engine with the
// address-sliced barrier: epoch phase 1, the barrier's slice and SM passes,
// the serial tail and the partitioning controller do their work here.
func slicedCell(r *run) error {
	if r.traced {
		return slicedCellTraced(r)
	}
	var first string
	for iter := 0; r.more(iter); iter++ {
		it, err := runSliced(r, nil, 0)
		if err != nil {
			return err
		}
		if iter == 0 {
			first = it.digest
			fmt.Printf("{\"stats_digest\": %q}\n", it.digest)
		}
		r.check(it.digest == first, "iteration %d: simulated stats differ from iteration 0", iter)
		r.sampleTime("wall_s", it.wall)
		r.sampleTime("setup_s", it.setup)
		r.sample("sim_minst_per_s", float64(it.insts)/it.wall.secs()/1e6)
	}
	return r.sampleSelfRSS()
}

// slicedCellTraced is the traced sliced-cell run: one untraced iteration
// for the overhead reference, the same iteration traced, then the serial
// engine on every cell (the cycle gap) and the solo references of the
// co-run's weighted speedup.
func slicedCellTraced(r *run) error {
	plain, err := runSliced(r, nil, 0)
	if err != nil {
		return err
	}
	rec := newRecorder()
	root := rec.begin(0, "bench", "sliced-cell", 0, 0)
	it, err := runSliced(r, rec, root)
	if err != nil {
		return err
	}
	r.check(it.digest == plain.digest, "traced iteration's simulated stats differ from the untraced one's")
	r.set("trace.overhead_frac", (it.setup.secs()+it.wall.secs())/(plain.setup.secs()+plain.wall.secs())-1)
	r.set("workloads.build_s", it.setup.secs())
	var built int64
	for _, c := range slicedCells {
		k, _, _ := workloads.CachedByName(c.bench, workloads.DefaultParams())
		built += kernelInsts(k)
	}
	r.set("workloads.insts", float64(built))

	var counts simCounts
	for _, res := range it.results {
		counts.add(res)
	}
	counts.report(r)
	reportProfiles(r, it.profiles)
	var simSecs float64
	var simInsts int64
	var maxCell float64
	for _, s := range rec.snapshot() {
		if s.Layer == "engine" {
			d := (s.End - s.Start).Seconds()
			simSecs += d
			maxCell = math.Max(maxCell, d)
		}
	}
	for _, res := range it.results[:len(slicedCells)] {
		simInsts += res.InstsIssued
	}
	r.set("sim.ns_per_inst", simSecs/float64(simInsts)*1e9)
	r.set("sim.cell_s.max", maxCell)

	corun := it.results[len(slicedCells)]
	decisions, _ := corun.Stats.CounterAt("control/decisions")
	r.set("control.decisions", float64(decisions))
	r.check(decisions > 0, "co-run under the controller made no decisions")
	r.set("multi.corun_s", it.corunSecs)
	ws, err := weightedSpeedup(r, rec, root, corun)
	if err != nil {
		return err
	}
	r.set("multi.weighted_speedup", ws)

	gap, err := serialGap(r, rec, root, it.results)
	if err != nil {
		return err
	}
	r.set("engine.cycle_gap_vs_serial", gap)
	return r.finishTrace(rec, root)
}

// reportProfiles aggregates the sharded engine's phase breakdown over the
// solo cells. The count projection to 8 cores is a structural figure from
// deterministic op counts, not a measured speed.
func reportProfiles(r *run, profiles []sim.ShardProfile) {
	var agg sim.ShardProfile
	var sliceOps []int64
	for _, p := range profiles {
		agg.Epochs += p.Epochs
		agg.LocalEvents += p.LocalEvents
		agg.BarrierOps += p.BarrierOps
		agg.GlobalEvents += p.GlobalEvents
		agg.Phase1Seconds += p.Phase1Seconds
		agg.BarrierSeconds += p.BarrierSeconds
		agg.SlicedOps += p.SlicedOps
		agg.SMPassOps += p.SMPassOps
		agg.SerialOps += p.SerialOps
		agg.SlicePassSeconds += p.SlicePassSeconds
		agg.SMPassSeconds += p.SMPassSeconds
		for i, n := range p.SliceOps {
			if i >= len(sliceOps) {
				sliceOps = append(sliceOps, 0)
			}
			sliceOps[i] += n
		}
	}
	r.set("engine.phase1_s", agg.Phase1Seconds)
	r.set("engine.barrier_s", agg.BarrierSeconds)
	r.set("engine.slice_pass_s", agg.SlicePassSeconds)
	r.set("engine.sm_pass_s", agg.SMPassSeconds)
	r.set("engine.serial_tail_s", math.Max(0, agg.BarrierSeconds-agg.SlicePassSeconds-agg.SMPassSeconds))
	r.set("engine.epochs", float64(agg.Epochs))
	r.set("engine.local_events", float64(agg.LocalEvents))
	r.set("engine.sliced_ops", float64(agg.SlicedOps))
	r.set("engine.sm_pass_ops", float64(agg.SMPassOps))
	r.set("engine.serial_ops", float64(agg.SerialOps))

	parallelOps := agg.LocalEvents + agg.SlicedOps + agg.SMPassOps
	serialOps := agg.BarrierOps + agg.SerialOps + agg.GlobalEvents
	total := float64(parallelOps + serialOps)
	if total > 0 {
		r.set("engine.parallel_fraction", float64(parallelOps)/total)
		ways := float64(min(len(sliceOps), 8))
		if denom := float64(serialOps)/total + float64(agg.LocalEvents)/total/8 +
			float64(agg.SlicedOps)/total/ways + float64(agg.SMPassOps)/total/8; denom > 0 && ways > 0 {
			r.set("engine.count_projected_speedup_8", 1/denom)
		}
	}
	var maxOps, sumOps float64
	for _, n := range sliceOps {
		maxOps = math.Max(maxOps, float64(n))
		sumOps += float64(n)
	}
	if len(sliceOps) > 0 {
		r.set("engine.slice_imbalance", ratio(maxOps, sumOps/float64(len(sliceOps))))
	}
}

// weightedSpeedup scores the co-run against each tenant's solo run on the
// same engine.
func weightedSpeedup(r *run, rec *recorder, parent int, corun sim.Result) (float64, error) {
	opt := coRunOptions(workers, l2Slices)
	solo := map[string]float64{}
	for _, name := range coRunPair {
		sp := rec.begin(parent, "multi", "multi.Solo "+name, 0, 0)
		res, err := multi.Solo(name, opt)
		rec.end(sp)
		r.attempted++
		if err != nil {
			r.failed++
			return 0, fmt.Errorf("solo %s: %w", name, err)
		}
		solo[name] = multi.SoloIPC(res)
	}
	ipc := make([]float64, len(corun.Tenants))
	for i, tn := range corun.Tenants {
		ipc[i] = solo[tn.Name]
	}
	ws := multi.WeightedSpeedup(corun.Tenants, ipc)
	r.check(ws > 0, "co-run weighted speedup %.3f", ws)
	return ws, nil
}

// serialGap simulates every cell again on the serial engine and returns
// the signed relative cycle gap (sliced - serial) / serial of largest
// magnitude: the two engines are different serializations of the model.
func serialGap(r *run, rec *recorder, parent int, sliced []sim.Result) (float64, error) {
	p := workloads.DefaultParams()
	var gap float64
	note := func(label string, slicedCycles, serialCycles int64) {
		g := float64(slicedCycles-serialCycles) / float64(serialCycles)
		fmt.Printf("{\"cycle_gap\": %q, \"sliced\": %d, \"serial\": %d, \"gap\": %.4f}\n", label, slicedCycles, serialCycles, g)
		if math.Abs(g) > math.Abs(gap) {
			gap = g
		}
	}
	for i, c := range slicedCells {
		k, as, _ := workloads.CachedByName(c.bench, p)
		s, err := sim.New(c.cfg(), k, as)
		r.attempted++
		if err != nil {
			r.failed++
			return 0, err
		}
		sp := rec.begin(parent, "sim", "sim.Run serial "+c.bench+" "+c.label, i+1, 0)
		res := s.Run()
		rec.end(sp)
		note(c.bench+" "+c.label, int64(sliced[i].Cycles), int64(res.Cycles))
	}
	sp := rec.begin(parent, "multi", "multi.CoRun serial", len(slicedCells)+1, 0)
	res, err := multi.CoRun(coRunPair, coRunOptions(1, 1))
	rec.end(sp)
	r.attempted++
	if err != nil {
		r.failed++
		return 0, err
	}
	note("corun", int64(sliced[len(slicedCells)].Cycles), int64(res.Cycles))
	return gap, nil
}
