package multi

import (
	"fmt"

	"gputlb/internal/arch"
	"gputlb/internal/control"
	"gputlb/internal/engine"
	"gputlb/internal/sched"
	"gputlb/internal/sim"
	"gputlb/internal/workloads"
)

// TLBMode selects how the shared L2 TLB treats co-running tenants.
type TLBMode int

const (
	// TLBSharedMode leaves the L2 TLB fully shared: ASID-tagged entries in
	// one common replacement pool, tenants free to thrash each other.
	TLBSharedMode TLBMode = iota
	// TLBStaticMode statically partitions the L2 TLB's sets per ASID
	// (the paper's TB-id partitioning with the tenant in the TB's role).
	TLBStaticMode
	// TLBDynamicMode is the static partition plus the paper's dynamic
	// adjacent-set sharing rule: a tenant whose partition stops yielding
	// hits spills into its neighbour's sets until the neighbour pushes back.
	TLBDynamicMode
	// TLBControllerMode starts from the static partition and attaches the
	// online partitioning controller (internal/control): set ownership and
	// SM assignment are repartitioned at runtime from per-tenant translation
	// metrics, and rebalanced on tenant arrivals and departures.
	TLBControllerMode
)

// String implements fmt.Stringer.
func (m TLBMode) String() string {
	switch m {
	case TLBSharedMode:
		return "shared"
	case TLBStaticMode:
		return "static"
	case TLBDynamicMode:
		return "dynamic"
	case TLBControllerMode:
		return "controller"
	default:
		return fmt.Sprintf("TLBMode(%d)", int(m))
	}
}

// l2Policy translates the mode into the TLB's index policy.
func (m TLBMode) l2Policy() arch.TLBIndexPolicy {
	switch m {
	case TLBStaticMode, TLBControllerMode:
		return arch.IndexByTB
	case TLBDynamicMode:
		return arch.IndexByTBShared
	default:
		return arch.IndexByAddress
	}
}

// Options configures one co-run cell.
type Options struct {
	// Base is the hardware configuration; the zero value means
	// arch.Default(). Solo reference runs use the same configuration with
	// the whole GPU, so co-run vs solo isolates the interference.
	Base *arch.Config
	// Params configures workload construction; its PageShift must match
	// Base. The zero value means workloads.DefaultParams().
	Params workloads.Params
	// SMPolicy divides the SMs among tenants (default spatial split).
	SMPolicy sched.SMAssignment
	// TLBMode selects the shared L2 TLB's tenancy policy (default shared).
	TLBMode TLBMode
	// CellParallel selects the intra-cell engine: 0 or 1 keeps the serial
	// engine; any n >= 2 runs the sharded epoch-barrier engine on one
	// goroutine (bit-identical across all n >= 2).
	CellParallel int
	// L2Slices partitions the sharded engine's barrier into K independent
	// address slices (sim.SetL2Slices); 0 or 1 is one slice. Effective
	// only with CellParallel >= 2.
	L2Slices int
	// Objective selects the controller's goal under TLBControllerMode
	// (the zero value is weighted speedup); ignored for the other modes.
	Objective control.Objective
	// Churn, when non-nil, adds benchmarks arriving mid-run through a
	// bounded admission queue.
	Churn *Churn
}

// Arrival is one benchmark arriving mid-run. It is also the wire shape of
// a cell's churn arrival (experiments.ArrivalSpec), hence the JSON tags.
type Arrival struct {
	// Bench is the arriving benchmark (Table II suite).
	Bench string `json:"bench"`
	// At is the arrival cycle; must be positive, nondecreasing across the
	// cell's arrival list.
	At int64 `json:"at"`
}

// Churn describes mid-run tenant traffic for CoRun.
type Churn struct {
	// QueueCap bounds the admission queue; overflow arrivals are shed.
	QueueCap int
	// Arrivals lists the arriving benchmarks in arrival-cycle order.
	Arrivals []Arrival
}

// config resolves the base configuration.
func (o Options) config() arch.Config {
	if o.Base != nil {
		return *o.Base
	}
	return arch.Default()
}

// params resolves the workload parameters.
func (o Options) params() workloads.Params {
	if o.Params == (workloads.Params{}) {
		return workloads.DefaultParams()
	}
	return o.Params
}

// Tenants builds the sim.Tenant list for the named benchmarks under the
// options' SM assignment: tenant i is benches[i] with ASID i.
func Tenants(benches []string, opt Options) ([]sim.Tenant, error) {
	if len(benches) < 2 {
		return nil, fmt.Errorf("multi: need at least 2 tenants, got %d", len(benches))
	}
	cfg := opt.config()
	assign := sched.AssignSMs(opt.SMPolicy, cfg.NumSMs, len(benches))
	tenants := make([]sim.Tenant, len(benches))
	for i, name := range benches {
		k, as, ok := workloads.CachedByName(name, opt.params())
		if !ok {
			return nil, fmt.Errorf("multi: unknown benchmark %q", name)
		}
		tenants[i] = sim.Tenant{Name: name, Kernel: k, AS: as, SMs: assign[i]}
	}
	return tenants, nil
}

// CoRun simulates the named benchmarks concurrently on one GPU and returns
// the combined result; Result.Tenants holds the per-tenant breakdown in
// benches order. Deterministic: the same benches, options, and seed always
// produce bit-identical results.
func CoRun(benches []string, opt Options) (sim.Result, error) {
	tenants, err := Tenants(benches, opt)
	if err != nil {
		return sim.Result{}, err
	}
	mopt := sim.MultiOptions{L2TLBPolicy: opt.TLBMode.l2Policy()}
	if opt.Churn != nil {
		spec := &sim.ChurnSpec{QueueCap: opt.Churn.QueueCap}
		for _, a := range opt.Churn.Arrivals {
			k, as, ok := workloads.CachedByName(a.Bench, opt.params())
			if !ok {
				return sim.Result{}, fmt.Errorf("multi: unknown benchmark %q", a.Bench)
			}
			spec.Arrivals = append(spec.Arrivals, sim.ChurnArrival{
				Tenant: sim.Tenant{Name: a.Bench, Kernel: k, AS: as},
				At:     engine.Cycle(a.At),
			})
		}
		mopt.Churn = spec
	}
	s, err := sim.NewMulti(opt.config(), tenants, mopt)
	if err != nil {
		return sim.Result{}, err
	}
	if opt.TLBMode == TLBControllerMode {
		cc := control.DefaultConfig()
		cc.Objective = opt.Objective
		if _, err := s.AttachController(cc); err != nil {
			return sim.Result{}, err
		}
	}
	s.SetCellParallel(opt.CellParallel)
	s.SetL2Slices(opt.L2Slices)
	return s.Run(), nil
}

// Solo simulates one benchmark alone on the whole GPU under the options'
// base configuration — the reference run weighted speedup divides by.
func Solo(bench string, opt Options) (sim.Result, error) {
	k, as, ok := workloads.CachedByName(bench, opt.params())
	if !ok {
		return sim.Result{}, fmt.Errorf("multi: unknown benchmark %q", bench)
	}
	s, err := sim.New(opt.config(), k, as)
	if err != nil {
		return sim.Result{}, err
	}
	s.SetCellParallel(opt.CellParallel)
	s.SetL2Slices(opt.L2Slices)
	return s.Run(), nil
}

// WeightedSpeedup is the standard multi-programming throughput metric:
// the sum over tenants of IPC_co-run / IPC_solo. soloIPC[i] must be tenant
// i's solo IPC under the same base configuration. A value of n (the tenant
// count) would mean zero interference; higher values mean co-running beats
// time-slicing the GPU. Shed tenants (churn admission-queue overflow) never
// ran and are skipped; tenants that ran for only part of the cell are
// scored over their own elapsed cycles (TenantResult.IPC).
func WeightedSpeedup(tenants []sim.TenantResult, soloIPC []float64) float64 {
	var ws float64
	for i, tn := range tenants {
		if tn.Shed {
			continue
		}
		if i < len(soloIPC) && soloIPC[i] > 0 {
			ws += tn.IPC() / soloIPC[i]
		}
	}
	return ws
}

// SoloIPC extracts the IPC of a solo reference run.
func SoloIPC(r sim.Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.InstsIssued) / float64(r.Cycles)
}
