package experiments

import (
	"strings"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/workloads"
)

// smallOpt uses a reduced scale and a two-benchmark subset so the full
// experiment surface stays fast in unit tests.
func smallOpt() Options {
	return Options{
		Params:         workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2},
		Benchmarks:     []string{"atax", "gemm"},
		MaxTBsForPairs: 48,
	}
}

func TestConfigsDifferAsAdvertised(t *testing.T) {
	if BaselineConfig().TBScheduler != arch.ScheduleRoundRobin {
		t.Error("baseline scheduler wrong")
	}
	if SchedConfig().TBScheduler != arch.ScheduleTLBAware {
		t.Error("sched config scheduler wrong")
	}
	if PartConfig().TLBIndexPolicy != arch.IndexByTB || PartConfig().TBScheduler != arch.ScheduleTLBAware {
		t.Error("part config wrong")
	}
	if ShareConfig().TLBIndexPolicy != arch.IndexByTBShared {
		t.Error("share config wrong")
	}
	for _, c := range []arch.Config{BaselineConfig(), SchedConfig(), PartConfig(), ShareConfig()} {
		if err := c.Validate(); err != nil {
			t.Errorf("invalid experiment config: %v", err)
		}
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	opt := smallOpt()
	opt.Benchmarks = []string{"nope"}
	if _, err := Fig2(opt); err == nil {
		t.Error("Fig2 accepted unknown benchmark")
	}
	if _, err := Eval(opt); err == nil {
		t.Error("Eval accepted unknown benchmark")
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2(smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.ScaledFootprintMB <= 0 || r.TBs <= 0 || r.UniquePages <= 0 {
			t.Errorf("%s: empty metadata %+v", r.Name, r)
		}
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "atax") || !strings.Contains(out, "gemm") {
		t.Error("render missing benchmarks")
	}
}

func TestTable3MentionsConfig(t *testing.T) {
	s := Table3()
	for _, want := range []string{"16 SMs", "64 entries", "512 entries"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
}

func TestFig2ShapeAndRender(t *testing.T) {
	rows, err := Fig2(smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Hit64 < 0 || r.Hit64 > 1 || r.Hit256 < 0 || r.Hit256 > 1 {
			t.Errorf("%s: hit rates out of range: %+v", r.Bench, r)
		}
		if r.Hit256 < r.Hit64-0.02 {
			t.Errorf("%s: 256-entry hit %f below 64-entry %f", r.Bench, r.Hit256, r.Hit64)
		}
	}
	if RenderFig2(rows) == "" {
		t.Error("empty render")
	}
}

func TestFig3And4Bins(t *testing.T) {
	for name, fn := range map[string]func(Options) ([]BinsRow, error){
		"fig3": Fig3, "fig4": Fig4, "warp": WarpReuse,
	} {
		rows, err := fn(smallOpt())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range rows {
			sum := 0.0
			for _, b := range r.Bins {
				sum += b
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("%s %s: bins sum to %v", name, r.Bench, sum)
			}
		}
		if RenderBins(name, rows) == "" {
			t.Errorf("%s: empty render", name)
		}
	}
}

func TestFig5And6CDFs(t *testing.T) {
	opt := smallOpt()
	inter, err := Fig5(opt)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := Fig6(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inter {
		// CDFs must be monotone and the interleaved distances must not be
		// shorter than the isolated ones at the L1 capacity point.
		c := inter[i].CDF
		prev := 0.0
		for l := 3; l <= 12; l++ {
			v := c.FractionWithin(l)
			if v < prev-1e-9 {
				t.Errorf("%s: interleaved CDF not monotone", inter[i].Bench)
			}
			prev = v
		}
		if inter[i].CDF.FractionWithin(6) > iso[i].CDF.FractionWithin(6)+1e-9 {
			t.Errorf("%s: interference shrank reuse distances (inter %.3f > iso %.3f at 2^6)",
				inter[i].Bench, inter[i].CDF.FractionWithin(6), iso[i].CDF.FractionWithin(6))
		}
	}
	if RenderCDF("t", inter) == "" || RenderCDF("t", iso) == "" {
		t.Error("empty render")
	}
}

func TestEvalAndRenders(t *testing.T) {
	rows, err := Eval(smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CyclesBase <= 0 || r.CyclesSched <= 0 || r.CyclesPart <= 0 || r.CyclesShare <= 0 {
			t.Errorf("%s: zero cycles %+v", r.Bench, r)
		}
		for _, norm := range []float64{r.NormSched(), r.NormPart(), r.NormShare()} {
			if norm < 0.2 || norm > 5 {
				t.Errorf("%s: implausible normalized time %v", r.Bench, norm)
			}
		}
	}
	if !strings.Contains(RenderFig11(rows), "geomean") {
		t.Error("Fig11 render missing geomean row")
	}
	if RenderFig10(rows) == "" {
		t.Error("empty Fig10 render")
	}
}

func TestFig12(t *testing.T) {
	rows, err := Fig12(smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Errorf("%s: non-positive speedup", r.Bench)
		}
	}
	if !strings.Contains(RenderFig12(rows), "geomean") {
		t.Error("render missing geomean")
	}
}

func TestHugePages(t *testing.T) {
	rows, err := HugePages(smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Hit2M < r.Hit4K {
			t.Errorf("%s: 2MB hit %f below 4KB hit %f (huge pages must raise hit rates)",
				r.Bench, r.Hit2M, r.Hit4K)
		}
		if r.SpeedupOurs2M <= 0 {
			t.Errorf("%s: bad speedup", r.Bench)
		}
	}
	if RenderHugePages(rows) == "" {
		t.Error("empty render")
	}
}

func TestAblations(t *testing.T) {
	opt := smallOpt()
	opt.Benchmarks = []string{"atax"}
	rows, err := AblationSharing(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // counter>=4, counter>=16 and all-to-all
		t.Fatalf("sharing ablation rows = %d, want 3", len(rows))
	}
	rows, err = AblationThrottle(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // throttle=4 and throttle=8
		t.Fatalf("throttle ablation rows = %d, want 2", len(rows))
	}
	if RenderAblation("t", rows) == "" {
		t.Error("empty render")
	}
}

func TestNewAblations(t *testing.T) {
	opt := smallOpt()
	opt.Benchmarks = []string{"atax"}
	ws, err := AblationWarpSched(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 { // lrr + translation-aware
		t.Fatalf("warp-sched rows = %d, want 2", len(ws))
	}
	pwc, err := AblationPWC(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pwc) != 2 { // baseline+pwc, proposal+pwc
		t.Fatalf("pwc rows = %d, want 2", len(pwc))
	}
	for _, r := range pwc {
		if r.NormTime > 1.05 {
			t.Errorf("%s %s: PWC slowed execution (%.3f)", r.Bench, r.Variant, r.NormTime)
		}
	}
	rep, err := AblationReplacement(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 2 { // fifo + random
		t.Fatalf("replacement rows = %d, want 2", len(rep))
	}
}

func TestSMBalance(t *testing.T) {
	opt := smallOpt()
	opt.Benchmarks = []string{"bfs"}
	rows, err := SMBalance(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.SpreadRR < 0 || r.SpreadRR > 1 || r.SpreadAware < 0 || r.SpreadAware > 1 {
		t.Errorf("spreads out of range: %+v", r)
	}
	if RenderSMBalance(rows) == "" {
		t.Error("empty render")
	}
}

func TestSeedSweep(t *testing.T) {
	opt := smallOpt()
	rows, err := SeedSweep(opt, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		for _, g := range []float64{r.GeoSched, r.GeoPart, r.GeoShare} {
			if g < 0.2 || g > 5 {
				t.Errorf("seed %d: implausible geomean %v", r.Seed, g)
			}
		}
	}
	if RenderSeedSweep(rows) == "" {
		t.Error("empty render")
	}
}
