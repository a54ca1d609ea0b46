package gputlb_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"gputlb"
)

// named builds a named machine, failing the test on an unknown name.
func named(t testing.TB, name string) gputlb.Config {
	t.Helper()
	cfg, err := gputlb.NamedConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func smallParams() gputlb.Params {
	p := gputlb.DefaultParams()
	p.Scale = 0.2
	return p
}

func TestPublicAPIQuickstart(t *testing.T) {
	// The README quickstart must work end to end.
	res, err := gputlb.Simulate("atax", smallParams(), named(t, "sched+part+share"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.L1TLBHitRate <= 0 {
		t.Fatalf("empty result: %+v", res.Cycles)
	}
}

func TestPublicAPIBuildAndRun(t *testing.T) {
	k, as, err := gputlb.Build("gemm", smallParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := gputlb.Run(named(t, "baseline"), k, as)
	if err != nil {
		t.Fatal(err)
	}
	if res.L1TLBAccesses() == 0 {
		t.Error("no TLB traffic")
	}
	if _, _, err := gputlb.Build("nope", smallParams()); err == nil {
		t.Error("Build accepted unknown benchmark")
	}
}

func TestPublicAPIWorkloadRegistry(t *testing.T) {
	if len(gputlb.Workloads()) != 10 || len(gputlb.WorkloadNames()) != 10 {
		t.Error("registry should expose the ten Table II benchmarks")
	}
	if _, ok := gputlb.WorkloadByName("bfs"); !ok {
		t.Error("bfs missing")
	}
}

func TestPublicAPICharacterization(t *testing.T) {
	k, _, err := gputlb.Build("bfs", smallParams())
	if err != nil {
		t.Fatal(err)
	}
	intra := gputlb.IntraTBReuse(k, 12)
	inter := gputlb.InterTBReuse(k, 12, 32)
	warp := gputlb.IntraWarpReuse(k, 12)
	for name, bins := range map[string]gputlb.ReuseBins{"intra": intra, "inter": inter, "warp": warp} {
		sum := 0.0
		for _, b := range bins {
			sum += b
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s bins sum to %v", name, sum)
		}
	}
	iso := gputlb.IsolatedReuseDistance(k, 12)
	inter5 := gputlb.InterleavedReuseDistance(k, 12, 16, 8)
	if iso.Reuses == 0 || inter5.Reuses == 0 {
		t.Error("no reuses measured")
	}
}

func TestPublicAPIConfigs(t *testing.T) {
	names := gputlb.ConfigNames()
	if len(names) == 0 {
		t.Fatal("no config names")
	}
	for _, name := range names {
		if err := named(t, name).Validate(); err != nil {
			t.Errorf("%s config invalid: %v", name, err)
		}
	}
	if named(t, "sched+part+share").TLBIndexPolicy != gputlb.IndexByTBShared {
		t.Error("sched+part+share policy wrong")
	}
	for _, bad := range []string{"share", "compression", "multi-shared-spatial"} {
		if _, err := gputlb.NamedConfig(bad); err == nil {
			t.Errorf("NamedConfig(%q) accepted", bad)
		}
	}
}

func TestProposalImprovesThrashingWorkload(t *testing.T) {
	// End-to-end sanity of the headline claim on a translation-bound
	// benchmark: the full proposal must beat the baseline.
	p := gputlb.DefaultParams()
	p.Scale = 0.5
	base, err := gputlb.Simulate("mvt", p, named(t, "baseline"))
	if err != nil {
		t.Fatal(err)
	}
	ours, err := gputlb.Simulate("mvt", p, named(t, "sched+part+share"))
	if err != nil {
		t.Fatal(err)
	}
	if ours.Cycles >= base.Cycles {
		t.Errorf("proposal (%d cycles) not faster than baseline (%d) on mvt", ours.Cycles, base.Cycles)
	}
	if ours.L1TLBHitRate <= base.L1TLBHitRate {
		t.Errorf("proposal hit rate %.3f not above baseline %.3f", ours.L1TLBHitRate, base.L1TLBHitRate)
	}
}

func TestEndToEndDeterminismGolden(t *testing.T) {
	// A regression tripwire: two full small-scale evaluation runs must be
	// bit-identical. (Absolute values are intentionally not pinned — the
	// timing model evolves — but nondeterminism is always a bug.)
	opt := gputlb.DefaultExperimentOptions()
	opt.Params.Scale = 0.2
	opt.Benchmarks = []string{"atax", "bfs", "gemm"}
	run := func() []gputlb.EvalRow {
		rows, err := gputlb.Eval(opt)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged on %s: %+v vs %+v", a[i].Bench, a[i], b[i])
		}
	}
}

func TestTraceRoundTripThroughPublicAPI(t *testing.T) {
	k, _, err := gputlb.Build("nw", smallParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gputlb.WriteKernelTrace(&buf, k); err != nil {
		t.Fatal(err)
	}
	loaded, err := gputlb.ReadKernelTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the trace on a bare address space must match running the
	// original kernel on a bare address space (the trace carries the full
	// behaviour).
	r1, err := gputlb.Run(named(t, "baseline"), k, gputlb.NewAddressSpace(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := gputlb.Run(named(t, "baseline"), loaded, gputlb.NewAddressSpace(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.L1TLBHitRate != r2.L1TLBHitRate {
		t.Errorf("trace replay diverged: %d/%f vs %d/%f",
			r1.Cycles, r1.L1TLBHitRate, r2.Cycles, r2.L1TLBHitRate)
	}
}

func TestGraphWorkloadOnExternalGraph(t *testing.T) {
	// DIMACS round trip into a workload build into a simulation.
	g := gputlb.GenerateGraph(8192, 4, 3)
	var buf bytes.Buffer
	if err := gputlb.WriteDIMACSGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := gputlb.ReadDIMACSGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	k, as, err := gputlb.BuildOnGraph("pagerank", loaded, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := gputlb.Run(named(t, "sched+part+share"), k, as)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.L1TLBAccesses() == 0 {
		t.Error("empty result from external-graph workload")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := named(t, "sched+part+share")
	cfg.PWCEntries = 32
	cfg.WarpScheduler = gputlb.WarpTransAware
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back gputlb.Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Errorf("config JSON round trip changed the config:\n%+v\n%+v", cfg, back)
	}
	if err := back.Validate(); err != nil {
		t.Errorf("round-tripped config invalid: %v", err)
	}
}
