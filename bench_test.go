package gputlb_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation at experiment scale. Each benchmark reports the headline
// numbers of its figure as custom metrics, and `go test -bench . -v` also
// logs the full rendered table. The normalized-time geomeans of Figure 11
// are the paper's headline results (paper: sched -2.3%, partitioning-only
// +14.3%, full proposal -12.5%).

import (
	"testing"

	"gputlb"
	"gputlb/internal/metrics"
)

func benchOptions() gputlb.ExperimentOptions {
	return gputlb.DefaultExperimentOptions()
}

// benchGeomean unwraps metrics.Geomean for b.ReportMetric; normalized times
// are always positive, so an error means the run itself is broken.
func benchGeomean(b *testing.B, xs []float64) float64 {
	b.Helper()
	g, err := metrics.Geomean(xs)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkTable2Workloads regenerates Table II (benchmark construction).
func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.Table2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderTable2(rows))
			var pages float64
			for _, r := range rows {
				pages += float64(r.UniquePages)
			}
			b.ReportMetric(pages/float64(len(rows)), "avg-pages/bench")
		}
	}
}

// BenchmarkFig2HitRates regenerates Figure 2 (64- vs 256-entry L1 TLBs).
func BenchmarkFig2HitRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.Fig2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderFig2(rows))
			var h64, h256 []float64
			for _, r := range rows {
				h64 = append(h64, r.Hit64)
				h256 = append(h256, r.Hit256)
			}
			b.ReportMetric(metrics.Mean(h64), "mean-hit-64")
			b.ReportMetric(metrics.Mean(h256), "mean-hit-256")
		}
	}
}

// BenchmarkFig3InterTB regenerates Figure 3 (inter-TB reuse bins).
func BenchmarkFig3InterTB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.Fig3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderBins("Figure 3 — inter-TB translation reuse", rows))
			var b1 []float64
			for _, r := range rows {
				b1 = append(b1, r.Bins[0])
			}
			b.ReportMetric(metrics.Mean(b1), "mean-pairs-in-b1")
		}
	}
}

// BenchmarkFig4IntraTB regenerates Figure 4 (intra-TB reuse bins).
func BenchmarkFig4IntraTB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.Fig4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderBins("Figure 4 — intra-TB translation reuse", rows))
			var hi []float64
			for _, r := range rows {
				hi = append(hi, r.Bins[3]+r.Bins[4])
			}
			b.ReportMetric(metrics.Mean(hi), "mean-TBs-in-b4b5")
		}
	}
}

// BenchmarkFig5ReuseDistance regenerates Figure 5 (distances under
// concurrent execution).
func BenchmarkFig5ReuseDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.Fig5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderCDF("Figure 5 — intra-TB reuse distance, concurrent TBs", rows))
			var within []float64
			for _, r := range rows {
				within = append(within, r.CDF.FractionWithin(6))
			}
			b.ReportMetric(metrics.Mean(within), "mean-within-L1-reach")
		}
	}
}

// BenchmarkFig6IsolatedDistance regenerates Figure 6 (interference removed).
func BenchmarkFig6IsolatedDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderCDF("Figure 6 — intra-TB reuse distance, one TB at a time", rows))
			var within []float64
			for _, r := range rows {
				within = append(within, r.CDF.FractionWithin(6))
			}
			b.ReportMetric(metrics.Mean(within), "mean-within-L1-reach")
		}
	}
}

// benchEval runs the four-configuration evaluation shared by Figures 10/11.
func benchEval(b *testing.B) []gputlb.EvalRow {
	b.Helper()
	rows, err := gputlb.Eval(benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// BenchmarkFig10HitRates regenerates Figure 10 (hit rates under the four
// configurations).
func BenchmarkFig10HitRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchEval(b)
		if i == 0 {
			b.Log("\n" + gputlb.RenderFig10(rows))
			var base, share []float64
			for _, r := range rows {
				base = append(base, r.HitBase)
				share = append(share, r.HitShare)
			}
			b.ReportMetric(metrics.Mean(base), "mean-hit-baseline")
			b.ReportMetric(metrics.Mean(share), "mean-hit-share")
		}
	}
}

// BenchmarkFig11ExecTime regenerates Figure 11 (normalized execution time;
// the geomean of the last column is the paper's 12.5% headline).
func BenchmarkFig11ExecTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchEval(b)
		if i == 0 {
			b.Log("\n" + gputlb.RenderFig11(rows))
			var sched, part, share []float64
			for _, r := range rows {
				sched = append(sched, r.NormSched())
				part = append(part, r.NormPart())
				share = append(share, r.NormShare())
			}
			b.ReportMetric(benchGeomean(b, sched), "geomean-sched")
			b.ReportMetric(benchGeomean(b, part), "geomean-sched+part")
			b.ReportMetric(benchGeomean(b, share), "geomean-sched+part+share")
		}
	}
}

// BenchmarkFig12Compression regenerates Figure 12 (our approach on top of
// the PACT'20 TLB compression; paper: +10.4%).
func BenchmarkFig12Compression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.Fig12(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderFig12(rows))
			var sp []float64
			for _, r := range rows {
				sp = append(sp, r.Speedup)
			}
			b.ReportMetric(benchGeomean(b, sp), "geomean-speedup-over-compression")
		}
	}
}

// BenchmarkHugePageStudy regenerates the §V large-page study (paper: our
// approach still adds ~2.13% with 2MB pages).
func BenchmarkHugePageStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.HugePages(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderHugePages(rows))
			var sp []float64
			for _, r := range rows {
				sp = append(sp, r.SpeedupOurs2M)
			}
			b.ReportMetric(benchGeomean(b, sp), "geomean-speedup-on-2MB")
		}
	}
}

// BenchmarkAblationSharing explores the sharing design space the paper
// defers to future work (counter thresholds, all-to-all sharing).
func BenchmarkAblationSharing(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"atax", "bfs", "gemm", "mvt"}
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.AblationSharing(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderAblation("Ablation — sharing activation variants", rows))
		}
	}
}

// BenchmarkAblationThrottle combines the proposal with TB throttling.
func BenchmarkAblationThrottle(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"atax", "bfs", "gemm", "mvt"}
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.AblationThrottle(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderAblation("Ablation — TB throttling", rows))
		}
	}
}

// BenchmarkWarpReuse runs the warp-granularity characterization (the
// paper's stated future work).
func BenchmarkWarpReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.WarpReuse(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderBins("Warp-granularity intra-warp reuse", rows))
		}
	}
}

// BenchmarkAblationWarpSched compares warp schedulers under the proposal,
// including the paper's future-work translation-aware scheduler.
func BenchmarkAblationWarpSched(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"atax", "bfs", "gemm", "mvt"}
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.AblationWarpSched(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderAblation("Ablation — warp schedulers (vs GTO)", rows))
		}
	}
}

// BenchmarkAblationPWC measures a page-walk cache on top of baseline and
// proposal.
func BenchmarkAblationPWC(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"atax", "bfs", "nw", "mvt"}
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.AblationPWC(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderAblation("Ablation — 64-entry page-walk cache", rows))
		}
	}
}

// BenchmarkAblationReplacement compares TLB replacement policies.
func BenchmarkAblationReplacement(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"atax", "bfs", "gemm", "mvt"}
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.AblationReplacement(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderAblation("Ablation — TLB replacement policies (vs LRU)", rows))
		}
	}
}

// BenchmarkSMBalance quantifies the per-SM hit-rate spread that motivates
// the TLB-aware scheduler (paper Figure 7's intuition).
func BenchmarkSMBalance(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"bfs", "color", "mis", "pagerank"}
	for i := 0; i < b.N; i++ {
		rows, err := gputlb.SMBalance(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + gputlb.RenderSMBalance(rows))
			var spread []float64
			for _, r := range rows {
				spread = append(spread, r.SpreadRR)
			}
			b.ReportMetric(metrics.Mean(spread), "mean-per-SM-hit-spread-RR")
		}
	}
}
