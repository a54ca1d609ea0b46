package multi

import (
	"reflect"
	"testing"

	"gputlb/internal/sim"
	"gputlb/internal/workloads"
)

func testOpt(mode TLBMode) Options {
	return Options{
		Params:  workloads.Params{PageShift: 12, Seed: 1, Scale: 0.1},
		TLBMode: mode,
	}
}

// TestTLBModeStrings pins the mode names: they are the <tlb> part of the
// co-run config names ("multi-<tlb>-<sm>") jobs carry.
func TestTLBModeStrings(t *testing.T) {
	for m, want := range map[TLBMode]string{
		TLBSharedMode: "shared", TLBStaticMode: "static", TLBDynamicMode: "dynamic", TLBControllerMode: "controller", 9: "TLBMode(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("TLBMode %d = %q, want %q", int(m), got, want)
		}
	}
}

func TestCoRunDeterministic(t *testing.T) {
	r1, err := CoRun([]string{"bfs", "atax"}, testOpt(TLBDynamicMode))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CoRun([]string{"bfs", "atax"}, testOpt(TLBDynamicMode))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || !reflect.DeepEqual(r1.Tenants, r2.Tenants) {
		t.Errorf("identical co-runs diverged:\n %+v\n %+v", r1.Tenants, r2.Tenants)
	}
}

func TestCoRunTenantOrderAndNames(t *testing.T) {
	benches := []string{"mis", "pagerank", "gemm"}
	r, err := CoRun(benches, testOpt(TLBSharedMode))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tenants) != len(benches) {
		t.Fatalf("Tenants = %d, want %d", len(r.Tenants), len(benches))
	}
	for i, tr := range r.Tenants {
		if int(tr.ASID) != i || tr.Name != benches[i] {
			t.Errorf("tenant %d = ASID %d %q, want ASID %d %q", i, tr.ASID, tr.Name, i, benches[i])
		}
	}
}

func TestCoRunErrors(t *testing.T) {
	if _, err := CoRun([]string{"bfs"}, testOpt(TLBSharedMode)); err == nil {
		t.Error("single-benchmark co-run accepted")
	}
	if _, err := CoRun([]string{"bfs", "nope"}, testOpt(TLBSharedMode)); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSoloMatchesSingleKernelRun(t *testing.T) {
	// Solo is the weighted-speedup denominator: it must be the plain
	// single-kernel simulation of the same build.
	opt := testOpt(TLBSharedMode)
	r, err := Solo("atax", opt)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := workloads.ByName("atax")
	k, as := s.Build(opt.params())
	want, err := sim.Run(opt.config(), k, as)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != want.Cycles || r.InstsIssued != want.InstsIssued {
		t.Errorf("Solo diverged from sim.Run: %d/%d vs %d/%d cycles/insts",
			r.Cycles, r.InstsIssued, want.Cycles, want.InstsIssued)
	}
	if got := SoloIPC(r); got != float64(r.InstsIssued)/float64(r.Cycles) {
		t.Errorf("SoloIPC = %f", got)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	tenants := []sim.TenantResult{
		{Cycles: 100, InstsIssued: 50}, // IPC 0.5
		{Cycles: 200, InstsIssued: 50}, // IPC 0.25
	}
	got := WeightedSpeedup(tenants, []float64{1.0, 0.5})
	if want := 0.5 + 0.5; got != want {
		t.Errorf("WeightedSpeedup = %f, want %f", got, want)
	}
	// Zero or missing solo IPCs contribute nothing rather than dividing by
	// zero.
	if got := WeightedSpeedup(tenants, []float64{0, 0.5}); got != 0.5 {
		t.Errorf("WeightedSpeedup with zero solo = %f, want 0.5", got)
	}
	if got := WeightedSpeedup(tenants, []float64{1.0}); got != 0.5 {
		t.Errorf("WeightedSpeedup with short solo slice = %f, want 0.5", got)
	}
}

func TestCoRunInstructionCountsMatchSolo(t *testing.T) {
	// Interference changes timing, never the work: each tenant retires
	// exactly its solo instruction count.
	opt := testOpt(TLBStaticMode)
	r, err := CoRun([]string{"bfs", "atax"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"bfs", "atax"} {
		solo, err := Solo(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Tenants[i].InstsIssued != solo.InstsIssued {
			t.Errorf("%s co-run issued %d insts, solo %d", name, r.Tenants[i].InstsIssued, solo.InstsIssued)
		}
	}
}
