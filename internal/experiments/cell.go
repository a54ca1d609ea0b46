package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"gputlb/internal/arch"
	"gputlb/internal/control"
	"gputlb/internal/multi"
	"gputlb/internal/sched"
	"gputlb/internal/sim"
	"gputlb/internal/tlbmech"
	"gputlb/internal/vm"
	"gputlb/internal/workloads"
)

// CellSpec identifies one simulation cell: a benchmark under a named
// configuration at a given workload scale and seed. A cell is a pure
// function of its spec — the property checkpoint/resume relies on — and
// the unit every simulating figure is written in: a figure builds its
// cells, runs them through Options.Executor and reduces the results.
type CellSpec struct {
	// Bench is a benchmark name from the Table II suite (workloads.All).
	// Multi-tenant cells may leave it empty; Validate fills it with the
	// "+"-joined tenant list for display.
	Bench string `json:"bench"`
	// Config is a named configuration variant; see ConfigNames. Multi-tenant
	// cells use the "multi-<tlb>-<sm>" names (MultiConfigNames).
	Config string `json:"config"`
	// Tenants, when non-empty, makes this a multi-tenant co-run cell: the
	// listed benchmarks run concurrently (tenant i gets ASID i) under the
	// multi config named by Config. Requires at least two entries.
	Tenants []string `json:"tenants,omitempty"`
	// Scale multiplies problem sizes; 0 means 1.0 (experiment scale).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives workload generation; 0 means 1.
	Seed int64 `json:"seed,omitempty"`
	// Arrivals adds tenant churn to a multi-tenant cell: each listed
	// benchmark arrives mid-run at its cycle, entering a free slot or the
	// bounded admission queue. Requires a Tenants list.
	Arrivals []ArrivalSpec `json:"arrivals,omitempty"`
	// QueueCap bounds the admission queue of a churn cell; arrivals past a
	// full queue are shed. Only meaningful with Arrivals.
	QueueCap int `json:"queue_cap,omitempty"`
	// Objective overrides the partitioning controller's optimization
	// objective ("ws", "fairness", "maxmin") for "multi-controller-*"
	// cells; empty keeps the default. Validate stores the canonical name,
	// and empties the default and any objective of another config.
	Objective string `json:"objective,omitempty"`
	// Mech overrides the translation mechanism both TLB levels run (one of
	// tlbmech.Known()); empty keeps the named config's mechanism. Only a
	// config on the base mechanism takes an override, and Validate
	// canonicalizes "base" to empty. Part of the cell's identity.
	Mech string `json:"mech,omitempty"`
	// Alloc overrides the UVM frame-allocation policy ("firsttouch",
	// "contig"); empty keeps the named config's policy, and Validate
	// canonicalizes "firsttouch" to empty. Part of the cell's identity.
	Alloc string `json:"alloc,omitempty"`
}

// ArrivalSpec is one churn arrival of a multi-tenant cell.
type ArrivalSpec struct {
	// Bench is the arriving benchmark (Table II suite).
	Bench string `json:"bench"`
	// At is the arrival cycle; must be positive, nondecreasing across the
	// cell's arrival list.
	At int64 `json:"at"`
}

// CellResult is the durable outcome of one simulation cell — the subset of
// sim.Result the figure reductions need, in a stable JSON shape. The
// gputlbd journal stores one of these per completed cell.
type CellResult struct {
	Bench        string  `json:"bench"`
	Config       string  `json:"config"`
	Cycles       int64   `json:"cycles"`
	L1TLBHitRate float64 `json:"l1_tlb_hit_rate"`
	L2TLBHitRate float64 `json:"l2_tlb_hit_rate"`
	Walks        int64   `json:"walks"`
	Faults       int64   `json:"faults"`
	InstsIssued  int64   `json:"insts_issued"`
	// Tenants holds the per-tenant breakdown of a multi-tenant co-run cell
	// (CellSpec.Tenants order); nil for single-kernel cells, keeping their
	// serialized form identical to the pre-tenancy journal format.
	Tenants []sim.TenantResult `json:"tenants,omitempty"`
}

// soloIPC is the IPC of a solo reference cell (0 for an empty run).
func (r CellResult) soloIPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.InstsIssued) / float64(r.Cycles)
}

// Executor runs a figure's cells and returns one result per cell, in cell
// order. A nil Options.Executor runs them in-process on the bounded pool;
// a *jobs.Client runs them as one job on a gputlbd daemon or fabric
// coordinator. Cells are pure functions of their specs, so both render the
// same figures byte for byte.
type Executor interface {
	RunCells(ctx context.Context, name string, cells []CellSpec) ([]CellResult, error)
}

// variant builds a named config: base with one change applied.
func variant(base func() arch.Config, set func(*arch.Config)) func() arch.Config {
	return func() arch.Config {
		c := base()
		set(&c)
		return c
	}
}

// namedConfigs are the single-kernel configuration variants a CellSpec can
// name: the one config vocabulary of every figure, every daemon job and
// gputlbsim. Each name builds a distinct machine; the translation mechanism
// and frame allocator are the cell's own axes (CellSpec.Mech, Alloc), so no
// entry sets them. A 2MB-page config implies the 2MB workload page size.
var namedConfigs = map[string]func() arch.Config{
	// The four Figure 10/11 bars.
	"baseline":         BaselineConfig,
	"sched":            SchedConfig,
	"sched+part":       PartConfig,
	"sched+part+share": ShareConfig,
	// Figure 2's larger L1 TLB (the 64-entry bar is the baseline).
	"256-entry": variant(BaselineConfig, func(c *arch.Config) { c.L1TLB.Entries = 256 }),
	// Huge-page study (the 4KB bar is the baseline).
	"baseline-2M": variant(BaselineConfig, func(c *arch.Config) { c.PageSize = arch.PageSize2M }),
	"ours-2M":     variant(ShareConfig, func(c *arch.Config) { c.PageSize = arch.PageSize2M }),
	// Ablations of the full proposal: sharing activation (§IV-B), TB
	// throttling (§IV-A), warp schedulers, TLB replacement; and a 64-entry
	// page-walk cache on the baseline and on the proposal.
	"counter>=4":        variant(ShareConfig, func(c *arch.Config) { c.ShareCounterThreshold = 4 }),
	"counter>=16":       variant(ShareConfig, func(c *arch.Config) { c.ShareCounterThreshold = 16 }),
	"all-to-all":        variant(ShareConfig, func(c *arch.Config) { c.SharingMode = arch.ShareAllToAll }),
	"throttle=4":        variant(ShareConfig, func(c *arch.Config) { c.ThrottleTBsPerSM = 4 }),
	"throttle=8":        variant(ShareConfig, func(c *arch.Config) { c.ThrottleTBsPerSM = 8 }),
	"lrr":               variant(ShareConfig, func(c *arch.Config) { c.WarpScheduler = arch.WarpLRR }),
	"translation-aware": variant(ShareConfig, func(c *arch.Config) { c.WarpScheduler = arch.WarpTransAware }),
	"fifo":              variant(ShareConfig, func(c *arch.Config) { c.TLBReplacement = arch.ReplaceFIFO }),
	"random":            variant(ShareConfig, func(c *arch.Config) { c.TLBReplacement = arch.ReplaceRandom }),
	"baseline+pwc":      variant(BaselineConfig, func(c *arch.Config) { c.PWCEntries = 64 }),
	"proposal+pwc":      variant(ShareConfig, func(c *arch.Config) { c.PWCEntries = 64 }),
}

// ConfigNames returns the recognized single-kernel configuration names,
// sorted. Multi-tenant cells use MultiConfigNames instead.
func ConfigNames() []string {
	out := make([]string, 0, len(namedConfigs))
	for n := range namedConfigs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// multiConfigName names the co-run config of one grid point.
func multiConfigName(mode multi.TLBMode, assign sched.SMAssignment) string {
	return fmt.Sprintf("multi-%s-%s", mode, assign)
}

// ParseMultiConfig looks a "multi-<tlb>-<sm>" config name up in the co-run
// grid (MultiTLBModes x MultiSMPolicies), returning the L2 TLB tenancy mode
// and SM assignment it names; ok is false when name is not a multi config.
func ParseMultiConfig(name string) (mode multi.TLBMode, assign sched.SMAssignment, ok bool) {
	for _, mode := range MultiTLBModes {
		for _, assign := range MultiSMPolicies {
			if name == multiConfigName(mode, assign) {
				return mode, assign, true
			}
		}
	}
	return 0, 0, false
}

// MultiConfigNames returns the recognized multi-tenant configuration names
// ("multi-<tlb>-<sm>"), in grid order: TLB mode major, SM assignment minor.
func MultiConfigNames() []string {
	var out []string
	for _, mode := range MultiTLBModes {
		for _, assign := range MultiSMPolicies {
			out = append(out, multiConfigName(mode, assign))
		}
	}
	return out
}

// Validate checks a cell that may come from outside the program and fills
// its defaults: zero Scale and Seed become 1.0 and 1, an explicit default
// mechanism ("base") or allocator ("firsttouch") becomes empty, an
// objective takes its canonical name and becomes empty when it is the
// default or the config attaches no controller, and a co-run cell without
// a Bench is labelled with its "+"-joined tenant list.
// Two specs that compute the same result thus validate to the same spec.
// Idempotent.
func (c *CellSpec) Validate() error {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mech == "base" {
		c.Mech = ""
	}
	if c.Alloc == "firsttouch" {
		c.Alloc = ""
	}
	if _, err := c.Machine(); err != nil {
		return err
	}
	if len(c.Tenants) == 0 {
		if len(c.Arrivals) > 0 || c.QueueCap != 0 || c.Objective != "" {
			return fmt.Errorf("churn fields require a tenants list")
		}
		if _, ok := workloads.ByName(c.Bench); !ok {
			return fmt.Errorf("unknown benchmark %q", c.Bench)
		}
		return nil
	}
	if len(c.Tenants) < 2 {
		return fmt.Errorf("co-run needs at least 2 tenants, got %d", len(c.Tenants))
	}
	for _, t := range c.Tenants {
		if _, ok := workloads.ByName(t); !ok {
			return fmt.Errorf("unknown tenant benchmark %q", t)
		}
	}
	if c.QueueCap < 0 {
		return fmt.Errorf("negative queue capacity %d", c.QueueCap)
	}
	if c.QueueCap > 0 && len(c.Arrivals) == 0 {
		return fmt.Errorf("queue capacity without arrivals")
	}
	var prev int64
	for j, a := range c.Arrivals {
		if _, ok := workloads.ByName(a.Bench); !ok {
			return fmt.Errorf("unknown arrival benchmark %q", a.Bench)
		}
		if a.At <= 0 || a.At < prev {
			return fmt.Errorf("arrival %d cycle %d not positive and nondecreasing", j, a.At)
		}
		prev = a.At
	}
	if c.Objective != "" {
		obj, err := control.ParseObjective(c.Objective)
		if err != nil {
			return err
		}
		c.Objective = obj.String()
		mode, _, _ := ParseMultiConfig(c.Config)
		if mode != multi.TLBControllerMode || obj == control.DefaultConfig().Objective {
			c.Objective = ""
		}
	}
	if c.Bench == "" {
		c.Bench = strings.Join(c.Tenants, "+")
	}
	return nil
}

// Machine returns the machine the cell simulates — the one config lookup
// of every figure, daemon job and gputlbsim run: the named single-kernel
// config, or the baseline hardware for a co-run's "multi-<tlb>-<sm>"
// config, with the cell's mechanism and allocator applied. It checks the
// config name against the cell's shape and the mechanism and allocator
// names, but not the benchmarks; Validate does both.
func (c CellSpec) Machine() (arch.Config, error) {
	build, ok := namedConfigs[c.Config]
	kind, names := "config", ConfigNames
	if _, _, multiName := ParseMultiConfig(c.Config); len(c.Tenants) > 0 {
		build, ok, kind, names = BaselineConfig, multiName, "multi config", MultiConfigNames
	} else if multiName {
		return arch.Config{}, fmt.Errorf("multi config %q requires a tenants list", c.Config)
	}
	if !ok {
		return arch.Config{}, fmt.Errorf("unknown %s %q (one of %v)", kind, c.Config, names())
	}
	if _, err := tlbmech.ParseSpec(c.Mech); err != nil {
		return arch.Config{}, err
	}
	if _, err := vm.ParseAllocMode(c.Alloc); err != nil {
		return arch.Config{}, err
	}
	// No named config sets either (TestConfigNamesBuildDistinctMachines).
	cfg := build()
	cfg.TLBMech, cfg.AllocMode = c.Mech, c.Alloc
	return cfg, nil
}

// label names the cell's stats tree in a StatsDump: its config, qualified
// by a mechanism override and by churn.
func (c CellSpec) label() string {
	l := c.Config
	if c.Mech != "" {
		l += "/mech-" + c.Mech
	}
	if len(c.Arrivals) > 0 {
		l += "/churn"
	}
	return l
}

// RunCell executes one cell in-process at the default workload parameters:
// it builds (or reuses the cached) kernel traces and simulates them under
// the named configuration; cells with a Tenants list run as multi-tenant
// co-runs. The spec is validated first, so a spec and its canonical form
// compute the same result. Deterministic for a given spec at any
// concurrency — the cell runner of gputlbd and its fabric workers, which
// always runs the serial engine.
func RunCell(c CellSpec) (CellResult, error) {
	if err := c.Validate(); err != nil {
		return CellResult{}, err
	}
	r, err := runCell(c, Options{Params: workloads.DefaultParams()}, 0)
	if err != nil {
		return CellResult{}, err
	}
	return newCellResult(c, r), nil
}

// runCell simulates one validated cell on the options' engine, with
// workload parameters taken from o.Params except for the cell's scale and
// seed and a 2MB config's page size. Single-kernel cells trace into
// o.Tracer as process pid.
func runCell(c CellSpec, o Options, pid int) (sim.Result, error) {
	p := o.Params
	p.Scale, p.Seed = c.Scale, c.Seed
	if len(c.Tenants) > 0 {
		return runCoRun(c, o, p)
	}
	spec, ok := workloads.ByName(c.Bench)
	if !ok {
		return sim.Result{}, fmt.Errorf("experiments: unknown benchmark %q", c.Bench)
	}
	cfg, err := c.Machine()
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %w", err)
	}
	if cfg.PageSize == arch.PageSize2M {
		p.PageShift = cfg.PageShift()
	}
	k, as := workloads.Cached(spec, p)
	s, err := sim.New(cfg, k, as)
	if err != nil {
		return sim.Result{}, fmt.Errorf("%s [%s]: %w", c.Bench, c.Config, err)
	}
	s.SetTracer(o.Tracer, pid)
	s.SetCellParallel(o.CellParallel)
	s.SetL2Slices(o.L2Slices)
	return s.Run(), nil
}

// runCoRun executes a multi-tenant co-run cell: the tenant benchmarks run
// concurrently under the "multi-<tlb>-<sm>" configuration on the baseline
// hardware, on the options' engine.
func runCoRun(c CellSpec, o Options, p workloads.Params) (sim.Result, error) {
	cfg, err := c.Machine()
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %w", err)
	}
	mode, assign, _ := ParseMultiConfig(c.Config)
	opt := multi.Options{
		Base:         &cfg,
		Params:       p,
		SMPolicy:     assign,
		TLBMode:      mode,
		CellParallel: o.CellParallel,
		L2Slices:     o.L2Slices,
	}
	if len(c.Arrivals) > 0 {
		churn := &multi.Churn{QueueCap: c.QueueCap}
		for _, a := range c.Arrivals {
			churn.Arrivals = append(churn.Arrivals, multi.Arrival{Bench: a.Bench, At: a.At})
		}
		opt.Churn = churn
	}
	if c.Objective != "" {
		obj, err := control.ParseObjective(c.Objective)
		if err != nil {
			return sim.Result{}, fmt.Errorf("%s [%s]: %w", c.Bench, c.Config, err)
		}
		cc := control.DefaultConfig()
		cc.Objective = obj
		opt.Control = &cc
	}
	r, err := multi.CoRun(c.Tenants, opt)
	if err != nil {
		return sim.Result{}, fmt.Errorf("%s [%s]: %w", c.Bench, c.Config, err)
	}
	return r, nil
}

// newCellResult extracts a cell's durable result from its simulation.
func newCellResult(c CellSpec, r sim.Result) CellResult {
	res := CellResult{
		Bench:        c.Bench,
		Config:       c.Config,
		Cycles:       int64(r.Cycles),
		L1TLBHitRate: r.L1TLBHitRate,
		L2TLBHitRate: r.L2TLB.HitRate(),
		Walks:        r.Walks,
		Faults:       r.Faults,
		InstsIssued:  r.InstsIssued,
	}
	if len(c.Tenants) > 0 {
		res.Tenants = r.Tenants
	}
	return res
}

// cell is a figure's cell for bench under the named config at the options'
// workload scale and seed — the one place figure cells are built.
func (o Options) cell(bench, config string) CellSpec {
	return CellSpec{Bench: bench, Config: config, Scale: o.Params.Scale, Seed: o.Params.Seed}
}

// coRunCell is the co-run cell of a benchmark pair at one grid point. It
// carries the options' partitioning objective, which Validate keeps only
// on controller cells.
func (o Options) coRunCell(pair [2]string, mode multi.TLBMode, assign sched.SMAssignment) CellSpec {
	c := o.cell(pair[0]+"+"+pair[1], multiConfigName(mode, assign))
	c.Tenants = []string{pair[0], pair[1]}
	c.Objective = o.Objective
	return c
}

// grid runs every benchmark under each named config, benchmark-major, and
// returns the results grouped per benchmark in configs order.
func (o Options) grid(name string, configs ...string) ([][]CellResult, error) {
	return o.mechGrid(name, "", configs...)
}

// mechGrid is grid with every cell under translation mechanism mech (see
// withMech); "" keeps the base mechanism.
func (o Options) mechGrid(name, mech string, configs ...string) ([][]CellResult, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	var cells []CellSpec
	for _, s := range specs {
		for _, c := range configs {
			cells = append(cells, withMech(o.cell(s.Name, c), mech))
		}
	}
	res, err := o.execute(name, cells)
	if err != nil {
		return nil, err
	}
	out := make([][]CellResult, len(specs))
	for i := range out {
		out[i] = res[i*len(configs) : (i+1)*len(configs)]
	}
	return out, nil
}

// pairs returns the options' benchmark names and their co-run pairs; a
// co-run study needs at least two benchmarks.
func (o Options) pairs(study string) ([]string, [][2]string, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, nil, err
	}
	if len(specs) < 2 {
		return nil, nil, fmt.Errorf("experiments: %s needs at least 2 benchmarks, got %d", study, len(specs))
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names, MultiPairs(names), nil
}

// soloIPCs maps each solo reference cell's benchmark to its IPC.
func soloIPCs(solo []CellResult) map[string]float64 {
	m := make(map[string]float64, len(solo))
	for _, r := range solo {
		m[r.Bench] = r.soloIPC()
	}
	return m
}

// weighted scores a co-run cell against solo references keyed by tenant
// name: each tenant's solo IPC (in Tenants order) and the cell's weighted
// speedup, sum_i IPC_i^co-run / IPC_i^solo.
func weighted(cell CellResult, solo map[string]float64) ([]float64, float64) {
	ipc := make([]float64, len(cell.Tenants))
	for j, tn := range cell.Tenants {
		ipc[j] = solo[tn.Name]
	}
	return ipc, multi.WeightedSpeedup(cell.Tenants, ipc)
}
