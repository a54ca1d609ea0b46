package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"gputlb/internal/arch"
	"gputlb/internal/chars"
	"gputlb/internal/metrics"
	"gputlb/internal/parallel"
	"gputlb/internal/sim"
	"gputlb/internal/stats"
	"gputlb/internal/workloads"
)

// Options selects the workloads and scale for an experiment run.
type Options struct {
	// Params configures workload construction. PageShift must match the
	// page size of the configs built for the runs.
	Params workloads.Params
	// Benchmarks restricts the run (nil = the full Table II suite).
	Benchmarks []string
	// MaxTBsForPairs caps the exhaustive TB-pair computation of Figure 3.
	MaxTBsForPairs int
	// Parallelism bounds how many simulation cells of a grid run
	// concurrently. Zero or negative means runtime.GOMAXPROCS(0); one
	// forces a sequential sweep. Every cell is a pure function of its
	// (spec, params, config) inputs, so results are bit-identical at any
	// parallelism level.
	Parallelism int
	// Progress, when non-nil, is called after each simulation cell of a
	// sweep finishes with (done, total). Calls are serialized.
	Progress func(done, total int)
	// Context cancels an in-flight sweep; nil means context.Background().
	Context context.Context
	// Tracer, when non-nil, receives structured events from every simulation
	// cell of a sweep; the trace's pid field is the cell index, so cells stay
	// distinguishable in one merged Chrome trace. Tracing never affects
	// simulation results.
	Tracer *stats.Tracer
	// StatsDump, when non-nil, collects every cell's full stats tree in
	// deterministic (cell-order) sequence for export.
	StatsDump *StatsDump
	// CellParallel selects the intra-cell engine of in-process runs: 0 or
	// 1 keeps the serial engine (byte-identical to the committed golden
	// stats); any n >= 2 runs each cell on the sharded epoch-barrier
	// engine, on the cell's one goroutine. Sharded results are the same at
	// every n >= 2 but differ slightly from the serial engine's (a
	// different — equally deterministic — serialization of shared-resource
	// requests). A cell does not carry the engine, so a run with an
	// Executor, whose cells run on the serial engine, refuses n >= 2.
	CellParallel int
	// L2Slices partitions the sharded engine's barrier into K independent
	// address slices (sim.SetL2Slices); 0 or 1 is one slice. Effective
	// only with CellParallel >= 2, and — like the engine choice — each K is
	// its own deterministic serialization: comparisons must hold both
	// CellParallel (serial vs sharded) and L2Slices fixed.
	L2Slices int
	// Objective overrides the partitioning controller's optimization
	// objective for controller-mode cells ("ws", "fairness", "maxmin");
	// empty keeps the default weighted-speedup objective. Ignored by cells
	// that never attach a controller.
	Objective string
	// Executor, when non-nil, runs the simulating figures' cells elsewhere —
	// a *jobs.Client sends them to a gputlbd daemon or fabric coordinator.
	// Nil runs them in-process under Parallelism, Progress, Tracer and
	// StatsDump, which a remote Executor ignores. The SM balance study
	// always runs in-process.
	Executor Executor
}

// StatsRow is one simulated cell's identity plus its full stats tree.
type StatsRow struct {
	Bench  string          `json:"bench"`
	Config string          `json:"config"`
	Stats  *stats.Snapshot `json:"stats"`
}

// StatsDump accumulates the stats trees of every simulation cell an
// experiment runs, so the CLIs can export them wholesale. Rows arrive in
// cell order within each experiment, making dumps reproducible at any
// parallelism level. Safe for use across concurrent experiment calls.
type StatsDump struct {
	mu   sync.Mutex
	rows []StatsRow
}

func (d *StatsDump) add(rows ...StatsRow) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rows = append(d.rows, rows...)
}

// Rows returns the collected rows in collection order.
func (d *StatsDump) Rows() []StatsRow {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]StatsRow(nil), d.rows...)
}

// WriteJSON writes the collected rows as one indented JSON array.
func (d *StatsDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d.Rows())
}

// WriteCSV writes the rows flattened to "bench,config,path,value" lines.
func (d *StatsDump) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "bench,config,path,value\n"); err != nil {
		return err
	}
	for _, row := range d.Rows() {
		if row.Stats == nil {
			continue
		}
		for _, fv := range row.Stats.Flatten("") {
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%s\n", row.Bench, row.Config, fv.Path, fv.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// DefaultOptions returns experiment-scale settings.
func DefaultOptions() Options {
	return Options{
		Params:         workloads.DefaultParams(),
		MaxTBsForPairs: 384,
	}
}

func (o Options) specs() ([]workloads.Spec, error) {
	if o.Benchmarks == nil {
		return workloads.All(), nil
	}
	var out []workloads.Spec
	for _, name := range o.Benchmarks {
		s, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
		}
		out = append(out, s)
	}
	return out, nil
}

// Configurations of the evaluation (paper Section V).

// BaselineConfig is Table III: round-robin scheduling, address-indexed TLBs.
func BaselineConfig() arch.Config { return arch.Default() }

var (
	// SchedConfig enables only the thrashing-aware TB scheduler.
	SchedConfig = variant(BaselineConfig, func(c *arch.Config) { c.TBScheduler = arch.ScheduleTLBAware })
	// PartConfig is scheduling plus TB-id TLB partitioning (no sharing) —
	// the "partitioning only" bars of Figures 10/11.
	PartConfig = variant(SchedConfig, func(c *arch.Config) { c.TLBIndexPolicy = arch.IndexByTB })
	// ShareConfig is the full proposal: scheduling + partitioning + dynamic
	// adjacent-set sharing.
	ShareConfig = variant(SchedConfig, func(c *arch.Config) { c.TLBIndexPolicy = arch.IndexByTBShared })
)

// ------------------------------------------------------------- sweep engine

func (o Options) pool() parallel.Options {
	return parallel.Options{Workers: o.Parallelism, Progress: o.Progress}
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// sweep validates cells and simulates them in-process through the bounded
// worker pool, returning their results in cell order. A failed cell reports
// its workload and config; the other cells still run. The options' tracer
// (if any) is shared across cells with the cell index as trace pid, and a
// configured StatsDump receives every cell's stats tree in cell order.
func (o Options) sweep(name string, cells []CellSpec) ([]sim.Result, error) {
	if err := validateCells(name, cells); err != nil {
		return nil, err
	}
	res, err := parallel.Map(o.ctx(), o.pool(), len(cells),
		func(_ context.Context, i int) (sim.Result, error) { return runCell(cells[i], o, i) })
	if err != nil {
		return nil, err
	}
	if o.StatsDump != nil {
		rows := make([]StatsRow, len(cells))
		for i, c := range cells {
			rows[i] = StatsRow{Bench: c.Bench, Config: c.label(), Stats: res[i].Stats}
		}
		o.StatsDump.add(rows...)
	}
	return res, nil
}

// validateCells validates (and canonicalizes) a figure's cells in place.
func validateCells(name string, cells []CellSpec) error {
	for i := range cells {
		if err := cells[i].Validate(); err != nil {
			return fmt.Errorf("experiments: %s cell %d: %w", name, i, err)
		}
	}
	return nil
}

// execute runs a figure's cells through the Executor, or in-process when
// it is nil, returning one result per cell in order.
func (o Options) execute(name string, cells []CellSpec) ([]CellResult, error) {
	if o.Executor == nil {
		res, err := o.sweep(name, cells)
		if err != nil {
			return nil, err
		}
		out := make([]CellResult, len(cells))
		for i, r := range res {
			out[i] = newCellResult(cells[i], r)
		}
		return out, nil
	}
	if o.CellParallel >= 2 {
		return nil, fmt.Errorf("experiments: %s: cell-parallel %d selects the in-process sharded engine; an executor runs cells on the serial engine", name, o.CellParallel)
	}
	if err := validateCells(name, cells); err != nil {
		return nil, err
	}
	res, err := o.Executor.RunCells(o.ctx(), name, cells)
	if err == nil && len(res) != len(cells) {
		err = fmt.Errorf("experiments: %s returned %d cell results, want %d", name, len(res), len(cells))
	}
	return res, err
}

// mapSpecs runs fn once per spec through the pool, preserving spec order.
func mapSpecs[T any](o Options, specs []workloads.Spec, fn func(workloads.Spec) (T, error)) ([]T, error) {
	return parallel.Map(o.ctx(), o.pool(), len(specs),
		func(_ context.Context, i int) (T, error) {
			r, err := fn(specs[i])
			if err != nil {
				var zero T
				return zero, fmt.Errorf("%s: %w", specs[i].Name, err)
			}
			return r, nil
		})
}

// ---------------------------------------------------------------- Table II

// Table2Row is one benchmark of the suite with its paper-reported footprint
// and the scaled footprint of our reproduction.
type Table2Row struct {
	Name, Suite, Input string
	PaperFootprintGB   float64
	ScaledFootprintMB  float64
	TBs                int
	MemInsts           int
	UniquePages        int
}

// Table2 reproduces the benchmark table.
func Table2(opt Options) ([]Table2Row, error) {
	specs, err := opt.specs()
	if err != nil {
		return nil, err
	}
	return mapSpecs(opt, specs, func(s workloads.Spec) (Table2Row, error) {
		k, as := workloads.Cached(s, opt.Params)
		return Table2Row{
			Name: s.Name, Suite: s.Suite, Input: s.Input,
			PaperFootprintGB:  s.PaperFootprintGB,
			ScaledFootprintMB: float64(workloads.FootprintBytes(as)) / (1 << 20),
			TBs:               len(k.TBs),
			MemInsts:          k.MemInsts(),
			UniquePages:       workloads.UniquePages(k, opt.Params.PageShift),
		}, nil
	})
}

// RenderTable2 formats Table II.
func RenderTable2(rows []Table2Row) string {
	t := metrics.NewTable("Benchmark", "Suite", "Input", "Paper footprint", "Scaled footprint", "TBs", "MemInsts", "Pages")
	for _, r := range rows {
		t.AddRow(r.Name, r.Suite, r.Input,
			fmt.Sprintf("%.2fGB", r.PaperFootprintGB),
			fmt.Sprintf("%.1fMB", r.ScaledFootprintMB),
			fmt.Sprint(r.TBs), fmt.Sprint(r.MemInsts), fmt.Sprint(r.UniquePages))
	}
	return "Table II — benchmarks (paper footprints vs scaled reproduction)\n" + t.String()
}

// ----------------------------------------------------------------- Figure 2

// Fig2Row holds the motivation hit rates at two L1 TLB capacities.
type Fig2Row struct {
	Bench  string
	Hit64  float64
	Hit256 float64
}

// Fig2 runs the baseline with 64- and 256-entry L1 TLBs.
func Fig2(opt Options) ([]Fig2Row, error) {
	g, err := opt.grid("fig2", "baseline", "256-entry")
	if err != nil {
		return nil, err
	}
	rows := make([]Fig2Row, len(g))
	for i, r := range g {
		rows[i] = Fig2Row{r[0].Bench, r[0].L1TLBHitRate, r[1].L1TLBHitRate}
	}
	return rows, nil
}

// RenderFig2 formats Figure 2.
func RenderFig2(rows []Fig2Row) string {
	t := metrics.NewTable("Benchmark", "64-entry hit", "256-entry hit", "64-entry")
	for _, r := range rows {
		t.AddRow(r.Bench, metrics.Pct(r.Hit64), metrics.Pct(r.Hit256), metrics.Bar(r.Hit64, 30))
	}
	return "Figure 2 — baseline L1 TLB hit rates, 64 vs 256 entries\n" + t.String()
}

// ------------------------------------------------------------ Figures 3 & 4

// BinsRow is one benchmark's reuse-intensity distribution.
type BinsRow struct {
	Bench string
	Bins  chars.Bins
}

// Fig3 computes inter-TB reuse-intensity bins.
func Fig3(opt Options) ([]BinsRow, error) {
	specs, err := opt.specs()
	if err != nil {
		return nil, err
	}
	return mapSpecs(opt, specs, func(s workloads.Spec) (BinsRow, error) {
		k, _ := workloads.Cached(s, opt.Params)
		return BinsRow{s.Name, chars.InterTB(k, opt.Params.PageShift, opt.MaxTBsForPairs)}, nil
	})
}

// Fig4 computes intra-TB reuse-intensity bins.
func Fig4(opt Options) ([]BinsRow, error) {
	specs, err := opt.specs()
	if err != nil {
		return nil, err
	}
	return mapSpecs(opt, specs, func(s workloads.Spec) (BinsRow, error) {
		k, _ := workloads.Cached(s, opt.Params)
		return BinsRow{s.Name, chars.IntraTB(k, opt.Params.PageShift)}, nil
	})
}

// RenderBins formats a Figure 3/4-style bin table.
func RenderBins(title string, rows []BinsRow) string {
	t := metrics.NewTable("Benchmark", "b1 (<20%)", "b2", "b3", "b4", "b5 (>80%)")
	for _, r := range rows {
		t.AddRow(r.Bench,
			metrics.Pct(r.Bins[0]), metrics.Pct(r.Bins[1]), metrics.Pct(r.Bins[2]),
			metrics.Pct(r.Bins[3]), metrics.Pct(r.Bins[4]))
	}
	return title + "\n" + t.String()
}

// ------------------------------------------------------------ Figures 5 & 6

// CDFRow is one benchmark's reuse-distance CDF.
type CDFRow struct {
	Bench string
	CDF   chars.DistanceCDF
}

// Fig5 computes the intra-TB reuse-distance CDF under concurrent execution
// (TBs interleaved on their SMs).
func Fig5(opt Options) ([]CDFRow, error) {
	specs, err := opt.specs()
	if err != nil {
		return nil, err
	}
	cfg := BaselineConfig()
	return mapSpecs(opt, specs, func(s workloads.Spec) (CDFRow, error) {
		k, _ := workloads.Cached(s, opt.Params)
		slots := k.ConcurrentTBsPerSM(cfg)
		return CDFRow{s.Name,
			chars.InterleavedReuseDistance(k, opt.Params.PageShift, cfg.NumSMs, slots)}, nil
	})
}

// Fig6 computes the intra-TB reuse-distance CDF running one TB at a time.
func Fig6(opt Options) ([]CDFRow, error) {
	specs, err := opt.specs()
	if err != nil {
		return nil, err
	}
	return mapSpecs(opt, specs, func(s workloads.Spec) (CDFRow, error) {
		k, _ := workloads.Cached(s, opt.Params)
		return CDFRow{s.Name, chars.IsolatedReuseDistance(k, opt.Params.PageShift)}, nil
	})
}

// RenderCDF formats a Figure 5/6-style table: CDF values at powers of two,
// with the 2^6 column marking the 64-entry L1 TLB capacity.
func RenderCDF(title string, rows []CDFRow) string {
	t := metrics.NewTable("Benchmark", "<=2^3", "<=2^4", "<=2^5", "<=2^6 (L1 capacity)", "<=2^8", "<=2^10", "reuses")
	for _, r := range rows {
		t.AddRow(r.Bench,
			metrics.Pct(r.CDF.FractionWithin(3)), metrics.Pct(r.CDF.FractionWithin(4)),
			metrics.Pct(r.CDF.FractionWithin(5)), metrics.Pct(r.CDF.FractionWithin(6)),
			metrics.Pct(r.CDF.FractionWithin(8)), metrics.Pct(r.CDF.FractionWithin(10)),
			fmt.Sprint(r.CDF.Reuses))
	}
	return title + "\n" + t.String()
}

// --------------------------------------------------------- Figures 10 & 11

// EvalRow holds one benchmark's results under the four evaluation
// configurations.
type EvalRow struct {
	Bench string
	// Hit rates (Figure 10).
	HitBase, HitSched, HitPart, HitShare float64
	// Execution cycles (Figure 11 normalizes to CyclesBase).
	CyclesBase, CyclesSched, CyclesPart, CyclesShare int64
}

// NormSched returns sched time normalized to baseline.
func (r EvalRow) NormSched() float64 { return float64(r.CyclesSched) / float64(r.CyclesBase) }

// NormPart returns sched+partitioning time normalized to baseline.
func (r EvalRow) NormPart() float64 { return float64(r.CyclesPart) / float64(r.CyclesBase) }

// NormShare returns the full proposal's time normalized to baseline.
func (r EvalRow) NormShare() float64 { return float64(r.CyclesShare) / float64(r.CyclesBase) }

// Eval runs the four configurations of Figures 10 and 11.
func Eval(opt Options) ([]EvalRow, error) {
	g, err := opt.grid("fig10-11", "baseline", "sched", "sched+part", "sched+part+share")
	if err != nil {
		return nil, err
	}
	rows := make([]EvalRow, len(g))
	for i, r := range g {
		b, sc, pa, sh := r[0], r[1], r[2], r[3]
		rows[i] = EvalRow{
			Bench:       b.Bench,
			HitBase:     b.L1TLBHitRate,
			HitSched:    sc.L1TLBHitRate,
			HitPart:     pa.L1TLBHitRate,
			HitShare:    sh.L1TLBHitRate,
			CyclesBase:  b.Cycles,
			CyclesSched: sc.Cycles,
			CyclesPart:  pa.Cycles,
			CyclesShare: sh.Cycles,
		}
	}
	return rows, nil
}

// RenderFig10 formats the hit-rate figure.
func RenderFig10(rows []EvalRow) string {
	t := metrics.NewTable("Benchmark", "Baseline", "Sched", "Sched+Part", "Sched+Part+Share")
	for _, r := range rows {
		t.AddRow(r.Bench, metrics.Pct(r.HitBase), metrics.Pct(r.HitSched),
			metrics.Pct(r.HitPart), metrics.Pct(r.HitShare))
	}
	return "Figure 10 — L1 TLB hit rates (higher is better)\n" + t.String()
}

// RenderFig11 formats the normalized-execution-time figure, with the
// geomean row the paper quotes (sched -2.3%, part +14.3%, share -12.5%).
func RenderFig11(rows []EvalRow) string {
	t := metrics.NewTable("Benchmark", "Baseline", "Sched", "Sched+Part", "Sched+Part+Share")
	var sched, part, share []float64
	for _, r := range rows {
		sched = append(sched, r.NormSched())
		part = append(part, r.NormPart())
		share = append(share, r.NormShare())
		t.AddRow(r.Bench, "1.000",
			fmt.Sprintf("%.3f", r.NormSched()),
			fmt.Sprintf("%.3f", r.NormPart()),
			fmt.Sprintf("%.3f", r.NormShare()))
	}
	t.AddRow("geomean", "1.000", fmtGeomean(sched), fmtGeomean(part), fmtGeomean(share))
	return "Figure 11 — execution time normalized to baseline (lower is better)\n" + t.String()
}

// ----------------------------------------------------------------- Figure 12

// Fig12Row compares TLB compression alone against our approach combined
// with compression, both normalized to compression alone.
type Fig12Row struct {
	Bench string
	// Speedup of (ours + compression) over (compression only): > 1 means
	// our approach adds improvement on top of compression.
	Speedup float64
	// Hit rates for context.
	HitCompress, HitOursCompress float64
}

// Fig12 runs the comparison against the PACT'20 compression comparator:
// the baseline and the full proposal, both on the compressed mechanism.
func Fig12(opt Options) ([]Fig12Row, error) {
	g, err := opt.mechGrid("fig12", "compressed", "baseline", "sched+part+share")
	if err != nil {
		return nil, err
	}
	rows := make([]Fig12Row, len(g))
	for i, r := range g {
		base, combined := r[0], r[1]
		rows[i] = Fig12Row{
			Bench:           base.Bench,
			Speedup:         float64(base.Cycles) / float64(combined.Cycles),
			HitCompress:     base.L1TLBHitRate,
			HitOursCompress: combined.L1TLBHitRate,
		}
	}
	return rows, nil
}

// RenderFig12 formats the compression comparison.
func RenderFig12(rows []Fig12Row) string {
	t := metrics.NewTable("Benchmark", "Speedup (ours+comp / comp)", "Hit comp", "Hit ours+comp")
	var sp []float64
	for _, r := range rows {
		sp = append(sp, r.Speedup)
		t.AddRow(r.Bench, fmt.Sprintf("%.3f", r.Speedup),
			metrics.Pct(r.HitCompress), metrics.Pct(r.HitOursCompress))
	}
	t.AddRow("geomean", fmtGeomean(sp))
	return "Figure 12 — our approach on top of TLB compression, normalized to compression alone\n" + t.String()
}

// ------------------------------------------------------- Huge-page study (§V)

// HugePageRow holds the 2MB-page study results.
type HugePageRow struct {
	Bench string
	// Baseline hit rates at the two page sizes.
	Hit4K, Hit2M float64
	// Speedup of the full proposal over baseline, both with 2MB pages.
	SpeedupOurs2M float64
}

// HugePages runs the paper's large-page study: 2MB pages raise hit rates by
// themselves; our approach still adds a (smaller) improvement on top.
func HugePages(opt Options) ([]HugePageRow, error) {
	g, err := opt.grid("hugepage", "baseline", "baseline-2M", "ours-2M")
	if err != nil {
		return nil, err
	}
	rows := make([]HugePageRow, len(g))
	for i, r := range g {
		r4, r2, ro := r[0], r[1], r[2]
		rows[i] = HugePageRow{
			Bench:         r4.Bench,
			Hit4K:         r4.L1TLBHitRate,
			Hit2M:         r2.L1TLBHitRate,
			SpeedupOurs2M: float64(r2.Cycles) / float64(ro.Cycles),
		}
	}
	return rows, nil
}

// RenderHugePages formats the large-page study.
func RenderHugePages(rows []HugePageRow) string {
	t := metrics.NewTable("Benchmark", "Hit 4KB", "Hit 2MB", "Ours on 2MB (speedup)")
	var sp []float64
	for _, r := range rows {
		sp = append(sp, r.SpeedupOurs2M)
		t.AddRow(r.Bench, metrics.Pct(r.Hit4K), metrics.Pct(r.Hit2M), fmt.Sprintf("%.3f", r.SpeedupOurs2M))
	}
	t.AddRow("geomean", "", "", fmtGeomean(sp))
	return "Huge-page study (§V) — 2MB pages, baseline vs our approach on top\n" + t.String()
}

// ----------------------------------------------------------------- Ablations

// AblationRow is a generic (benchmark, variant) -> normalized time result.
type AblationRow struct {
	Bench    string
	Variant  string
	NormTime float64
	HitRate  float64
}

// ablations runs the (reference, variant) pairs of named configs of every
// set on every benchmark as one grid, so a config shared by several pairs
// or sets runs once per benchmark, and reduces each set to its table:
// each variant's execution time normalized to its reference,
// benchmark-major in pair order.
func (o Options) ablations(name string, sets ...[][2]string) ([][]AblationRow, error) {
	var configs []string
	col := map[string]int{}
	for _, pairs := range sets {
		for _, p := range pairs {
			for _, c := range p {
				if _, ok := col[c]; !ok {
					col[c] = len(configs)
					configs = append(configs, c)
				}
			}
		}
	}
	g, err := o.grid(name, configs...)
	if err != nil {
		return nil, err
	}
	tables := make([][]AblationRow, len(sets))
	for i, pairs := range sets {
		for _, r := range g {
			for _, p := range pairs {
				ref, v := r[col[p[0]]], r[col[p[1]]]
				tables[i] = append(tables[i], AblationRow{v.Bench, p[1], float64(v.Cycles) / float64(ref.Cycles), v.L1TLBHitRate})
			}
		}
	}
	return tables, nil
}

// ablation is ablations of one set of pairs.
func (o Options) ablation(name string, pairs [][2]string) ([]AblationRow, error) {
	tables, err := o.ablations(name, pairs)
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// vsProposal pairs each variant with the full proposal as its reference.
func vsProposal(variants ...string) [][2]string {
	pairs := make([][2]string, len(variants))
	for i, v := range variants {
		pairs[i] = [2]string{"sched+part+share", v}
	}
	return pairs
}

// The design-space ablations' (reference, variant) pairs, in the order
// Ablations returns their tables.
var (
	sharingPairs     = vsProposal("counter>=4", "counter>=16", "all-to-all")
	throttlePairs    = vsProposal("throttle=4", "throttle=8")
	warpSchedPairs   = vsProposal("lrr", "translation-aware")
	pwcPairs         = [][2]string{{"baseline", "baseline+pwc"}, {"sched+part+share", "proposal+pwc"}}
	replacementPairs = vsProposal("fifo", "random")
	// assocPairs bounds what removing L1 TLB set conflicts alone buys.
	assocPairs = [][2]string{{"baseline", "baseline-fa"}}
)

// Ablations runs the six design-space ablations as one grid, one cell
// per benchmark and distinct config (14 configs), and returns their
// tables in the order AblationSharing, AblationThrottle,
// AblationWarpSched, AblationPWC, AblationReplacement, each identical to
// what that function returns, and last the fully associative baseline
// (baseline-fa) against the baseline.
func Ablations(opt Options) ([][]AblationRow, error) {
	return opt.ablations("ablations", sharingPairs, throttlePairs, warpSchedPairs, pwcPairs, replacementPairs, assocPairs)
}

// AblationSharing compares the 1-bit sharing flag against counter
// thresholds of 4 and 16 and against all-to-all sharing (paper §IV-B
// discussion and future work), normalized to the 1-bit adjacent design.
func AblationSharing(opt Options) ([]AblationRow, error) {
	return opt.ablation("ablation-sharing", sharingPairs)
}

// AblationThrottle combines the proposal with TB throttling to 4 and 8 TBs
// per SM (paper §IV-A notes the approaches compose), normalized to the
// unthrottled proposal.
func AblationThrottle(opt Options) ([]AblationRow, error) {
	return opt.ablation("ablation-throttle", throttlePairs)
}

// fmtGeomean renders a geomean for a summary row; cycle counts are always
// positive, so an error here means corrupted inputs — render it visibly
// rather than fabricating a number.
func fmtGeomean(xs []float64) string {
	g, err := metrics.Geomean(xs)
	if err != nil {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", g)
}

// RenderAblation formats an ablation table.
func RenderAblation(title string, rows []AblationRow) string {
	t := metrics.NewTable("Benchmark", "Variant", "Time vs reference", "Hit rate")
	for _, r := range rows {
		t.AddRow(r.Bench, r.Variant, fmt.Sprintf("%.3f", r.NormTime), metrics.Pct(r.HitRate))
	}
	return title + "\n" + t.String()
}

// WarpReuse computes warp-granularity intra-reuse bins (the paper's stated
// future work: translation reuse at warp granularity).
func WarpReuse(opt Options) ([]BinsRow, error) {
	specs, err := opt.specs()
	if err != nil {
		return nil, err
	}
	return mapSpecs(opt, specs, func(s workloads.Spec) (BinsRow, error) {
		k, _ := workloads.Cached(s, opt.Params)
		return BinsRow{s.Name, chars.IntraWarp(k, opt.Params.PageShift)}, nil
	})
}

// Table3 renders the baseline configuration.
func Table3() string {
	return "Table III — baseline configuration\n" + arch.Default().String() + "\n"
}

// AblationWarpSched compares warp scheduling policies under the full
// proposal (the paper's conclusion proposes translation reuse-aware warp
// scheduling as future work), normalized to GTO.
func AblationWarpSched(opt Options) ([]AblationRow, error) {
	return opt.ablation("ablation-warpsched", warpSchedPairs)
}

// AblationPWC measures a shared 64-entry page-walk cache on top of the
// baseline and the full proposal, normalized to the same configuration
// without a PWC.
func AblationPWC(opt Options) ([]AblationRow, error) {
	return opt.ablation("ablation-pwc", pwcPairs)
}

// AblationReplacement compares TLB replacement policies under the full
// proposal, normalized to LRU.
func AblationReplacement(opt Options) ([]AblationRow, error) {
	return opt.ablation("ablation-replacement", replacementPairs)
}

// SMBalance quantifies the scheduler-facing imbalance of paper §IV-A: the
// spread of per-SM L1 TLB hit rates under round-robin vs TLB-aware
// scheduling.
type SMBalanceRow struct {
	Bench                 string
	SpreadRR, SpreadAware float64 // max-min per-SM hit rate
}

// SMBalance runs both schedulers and reports the per-SM hit-rate spread.
// It always runs in-process: a CellResult carries no per-SM counters.
func SMBalance(opt Options) ([]SMBalanceRow, error) {
	specs, err := opt.specs()
	if err != nil {
		return nil, err
	}
	spread := func(r sim.Result) float64 {
		lo, hi := 1.0, 0.0
		for _, st := range r.L1TLBPerSM {
			if st.Accesses == 0 {
				continue
			}
			h := st.HitRate()
			if h < lo {
				lo = h
			}
			if h > hi {
				hi = h
			}
		}
		if hi < lo {
			return 0
		}
		return hi - lo
	}
	var cells []CellSpec
	for _, s := range specs {
		cells = append(cells, opt.cell(s.Name, "baseline"), opt.cell(s.Name, "sched"))
	}
	res, err := opt.sweep("balance", cells)
	if err != nil {
		return nil, err
	}
	rows := make([]SMBalanceRow, len(specs))
	for i, s := range specs {
		rows[i] = SMBalanceRow{s.Name, spread(res[2*i]), spread(res[2*i+1])}
	}
	return rows, nil
}

// RenderSMBalance formats the per-SM balance study.
func RenderSMBalance(rows []SMBalanceRow) string {
	t := metrics.NewTable("Benchmark", "Per-SM hit spread (RR)", "Per-SM hit spread (TLB-aware)")
	for _, r := range rows {
		t.AddRow(r.Bench, metrics.Pct(r.SpreadRR), metrics.Pct(r.SpreadAware))
	}
	return "Scheduler balance (§IV-A motivation) — spread of per-SM L1 TLB hit rates\n" + t.String()
}

// SeedSweepRow holds one seed's Figure 11 geomeans; the sweep quantifies
// how robust the headline results are to the synthetic-workload seed.
type SeedSweepRow struct {
	Seed                        int64
	GeoSched, GeoPart, GeoShare float64
}

// SeedSweep reruns the Figure 10/11 evaluation for each seed.
func SeedSweep(opt Options, seeds []int64) ([]SeedSweepRow, error) {
	var rows []SeedSweepRow
	for _, seed := range seeds {
		o := opt
		o.Params.Seed = seed
		evals, err := Eval(o)
		if err != nil {
			return nil, err
		}
		var sched, part, share []float64
		for _, r := range evals {
			sched = append(sched, r.NormSched())
			part = append(part, r.NormPart())
			share = append(share, r.NormShare())
		}
		gs, err := metrics.Geomean(sched)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		gp, err := metrics.Geomean(part)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		gh, err := metrics.Geomean(share)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		rows = append(rows, SeedSweepRow{Seed: seed, GeoSched: gs, GeoPart: gp, GeoShare: gh})
	}
	return rows, nil
}

// RenderSeedSweep formats the robustness sweep.
func RenderSeedSweep(rows []SeedSweepRow) string {
	t := metrics.NewTable("Seed", "Geomean sched", "Geomean sched+part", "Geomean sched+part+share")
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Seed),
			fmt.Sprintf("%.3f", r.GeoSched),
			fmt.Sprintf("%.3f", r.GeoPart),
			fmt.Sprintf("%.3f", r.GeoShare))
	}
	return "Seed robustness — Figure 11 geomeans across workload seeds\n" + t.String()
}
