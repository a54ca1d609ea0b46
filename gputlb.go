// Package gputlb is a cycle-level GPU address-translation simulator and
// benchmark suite reproducing "Orchestrated Scheduling and Partitioning for
// Improved Address Translation in GPUs" (Li, Wang, Tang — DAC 2023).
//
// The library models a UVM-based CPU-GPU system — per-SM L1 TLBs, a shared
// L2 TLB, page-table walkers over a demand-paged address space, caches, and
// a GPU with warp and thread-block scheduling — and implements the paper's
// proposal: a TLB-thrashing-aware thread-block scheduler, TB-id-based L1
// TLB partitioning, and dynamic adjacent-set sharing.
//
// Quick start:
//
//	cfg, err := gputlb.NamedConfig("sched+part+share") // the full proposal
//	if err != nil { ... }
//	res, err := gputlb.Simulate("bfs", gputlb.DefaultParams(), cfg)
//	if err != nil { ... }
//	fmt.Printf("hit rate %.2f in %d cycles\n", res.L1TLBHitRate, res.Cycles)
//
// The experiments API regenerates every table and figure of the paper; see
// Fig2 through Fig12, HugePages, and the ablations.
package gputlb

import (
	"fmt"
	"io"

	"gputlb/internal/arch"
	"gputlb/internal/chars"
	"gputlb/internal/experiments"
	"gputlb/internal/graph"
	"gputlb/internal/multi"
	"gputlb/internal/sched"
	"gputlb/internal/sim"
	"gputlb/internal/stats"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
	"gputlb/internal/workloads"
)

// Config is the full machine description (Table III defaults).
type Config = arch.Config

// Architectural enums and constants.
const (
	IndexByAddress  = arch.IndexByAddress
	IndexByTB       = arch.IndexByTB
	IndexByTBShared = arch.IndexByTBShared

	ScheduleRoundRobin = arch.ScheduleRoundRobin
	ScheduleTLBAware   = arch.ScheduleTLBAware

	ShareAdjacent = arch.ShareAdjacent
	ShareAllToAll = arch.ShareAllToAll

	PageSize4K = arch.PageSize4K
	PageSize2M = arch.PageSize2M
	WarpSize   = arch.WarpSize
)

// NamedConfig returns the machine one of ConfigNames builds ("baseline" is
// Table III, "sched+part+share" the full proposal): the names every figure,
// daemon job and gputlbsim run use. No name sets TLBMech or AllocMode.
func NamedConfig(name string) (Config, error) {
	return experiments.CellSpec{Config: name}.Machine()
}

// ConfigNames returns the names NamedConfig accepts, sorted.
func ConfigNames() []string { return experiments.ConfigNames() }

// Params controls workload construction (scale, seed, page size).
type Params = workloads.Params

// DefaultParams returns experiment-scale workload parameters.
func DefaultParams() Params { return workloads.DefaultParams() }

// Workload is one benchmark of the paper's Table II.
type Workload = workloads.Spec

// Kernel is a GPU kernel launch as an address trace.
type Kernel = trace.Kernel

// AddressSpace is a UVM virtual address space with demand paging.
type AddressSpace = vm.AddressSpace

// Result aggregates one simulation run.
type Result = sim.Result

// Workloads returns the ten benchmarks in the paper's order.
func Workloads() []Workload { return workloads.All() }

// WorkloadNames returns the benchmark names in the paper's order.
func WorkloadNames() []string { return workloads.Names() }

// WorkloadByName finds a benchmark by its Table II name.
func WorkloadByName(name string) (Workload, bool) { return workloads.ByName(name) }

// Build constructs a benchmark's kernel trace and UVM address space.
func Build(name string, p Params) (*Kernel, *AddressSpace, error) {
	s, ok := workloads.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("gputlb: unknown benchmark %q", name)
	}
	k, as := s.Build(p)
	return k, as, nil
}

// Run simulates a kernel to completion under cfg.
func Run(cfg Config, k *Kernel, as *AddressSpace) (Result, error) {
	return sim.Run(cfg, k, as)
}

// Observability: every simulation registers its components into a
// hierarchical stats tree (Result.Stats), and a Simulator accepts an
// optional event tracer exportable as Chrome trace_event JSON.

// Simulator is one configured simulation run; use it instead of Run when
// you need to attach a tracer or query the stats registry directly.
type Simulator = sim.Simulator

// StatsRegistry is the live metric tree a simulation registers into.
type StatsRegistry = stats.Registry

// StatsSnapshot is a materialized, serializable stats tree.
type StatsSnapshot = stats.Snapshot

// Tracer is a ring-buffered structured event sink shared by one or more
// simulations; nil is a valid no-op tracer.
type Tracer = stats.Tracer

// TraceEvent is one Chrome trace_event record.
type TraceEvent = stats.Event

// StatsDump collects the stats trees of every cell an experiment sweep
// runs; see ExperimentOptions.StatsDump.
type StatsDump = experiments.StatsDump

// StatsRow is one StatsDump entry: (bench, config, stats tree).
type StatsRow = experiments.StatsRow

// DefaultTraceCapacity is the tracer ring size used for capacity <= 0.
const DefaultTraceCapacity = stats.DefaultTraceCapacity

// NewSimulator builds a simulator for one run; call SetTracer before Run to
// capture events, and Registry to inspect metrics.
func NewSimulator(cfg Config, k *Kernel, as *AddressSpace) (*Simulator, error) {
	return sim.New(cfg, k, as)
}

// NewTracer creates an event tracer keeping the most recent capacity events
// (<= 0 means DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer { return stats.NewTracer(capacity) }

// Simulate builds benchmark name with p and runs it under cfg.
func Simulate(name string, p Params, cfg Config) (Result, error) {
	k, as, err := Build(name, p)
	if err != nil {
		return Result{}, err
	}
	return sim.Run(cfg, k, as)
}

// Characterization (paper Section III).

// ReuseBins is a 20%-binned reuse-intensity distribution (b1..b5).
type ReuseBins = chars.Bins

// DistanceCDF is a power-of-two-bucketed reuse-distance CDF.
type DistanceCDF = chars.DistanceCDF

// IntraTBReuse computes Figure 4's per-TB reuse intensity bins.
func IntraTBReuse(k *Kernel, pageShift uint) ReuseBins { return chars.IntraTB(k, pageShift) }

// InterTBReuse computes Figure 3's TB-pair reuse intensity bins (maxTBs
// bounds the pair count; 0 = exhaustive).
func InterTBReuse(k *Kernel, pageShift uint, maxTBs int) ReuseBins {
	return chars.InterTB(k, pageShift, maxTBs)
}

// IntraWarpReuse computes warp-granularity reuse bins (the paper's stated
// future work).
func IntraWarpReuse(k *Kernel, pageShift uint) ReuseBins { return chars.IntraWarp(k, pageShift) }

// IsolatedReuseDistance computes Figure 6's CDF (one TB at a time).
func IsolatedReuseDistance(k *Kernel, pageShift uint) DistanceCDF {
	return chars.IsolatedReuseDistance(k, pageShift)
}

// InterleavedReuseDistance computes Figure 5's CDF (TBs interleaved on
// their SMs, exposing inter-TB interference).
func InterleavedReuseDistance(k *Kernel, pageShift uint, numSMs, slotsPerSM int) DistanceCDF {
	return chars.InterleavedReuseDistance(k, pageShift, numSMs, slotsPerSM)
}

// Experiments: every table and figure of the evaluation.

// ExperimentOptions selects workloads and scale for experiment runs.
type ExperimentOptions = experiments.Options

// DefaultExperimentOptions returns experiment-scale settings.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// Experiment row types.
type (
	Table2Row   = experiments.Table2Row
	Fig2Row     = experiments.Fig2Row
	BinsRow     = experiments.BinsRow
	CDFRow      = experiments.CDFRow
	EvalRow     = experiments.EvalRow
	Fig12Row    = experiments.Fig12Row
	HugePageRow = experiments.HugePageRow
	AblationRow = experiments.AblationRow
)

// Table and figure entry points; each has a matching Render helper.
var (
	Table2    = experiments.Table2
	Table3    = experiments.Table3
	Fig2      = experiments.Fig2
	Fig3      = experiments.Fig3
	Fig4      = experiments.Fig4
	Fig5      = experiments.Fig5
	Fig6      = experiments.Fig6
	Eval      = experiments.Eval
	Fig12     = experiments.Fig12
	HugePages = experiments.HugePages

	Ablations           = experiments.Ablations
	AblationSharing     = experiments.AblationSharing
	AblationThrottle    = experiments.AblationThrottle
	AblationWarpSched   = experiments.AblationWarpSched
	AblationPWC         = experiments.AblationPWC
	AblationReplacement = experiments.AblationReplacement
	SMBalance           = experiments.SMBalance
	SeedSweep           = experiments.SeedSweep
	WarpReuse           = experiments.WarpReuse

	RenderTable2    = experiments.RenderTable2
	RenderFig2      = experiments.RenderFig2
	RenderBins      = experiments.RenderBins
	RenderCDF       = experiments.RenderCDF
	RenderFig10     = experiments.RenderFig10
	RenderFig11     = experiments.RenderFig11
	RenderFig12     = experiments.RenderFig12
	RenderHugePages = experiments.RenderHugePages
	RenderAblation  = experiments.RenderAblation
	RenderSMBalance = experiments.RenderSMBalance
	RenderSeedSweep = experiments.RenderSeedSweep
)

// Multi-tenant co-runs: several kernels concurrently on one GPU, each in
// its own ASID-tagged address space, with tenant-aware L2 TLB partitioning.

// Tenant is one co-running kernel of a multi-tenant simulation.
type Tenant = sim.Tenant

// TenantResult is one tenant's share of a multi-tenant Result.
type TenantResult = sim.TenantResult

// MultiSimOptions tunes the shared translation hardware of a multi-tenant
// run (sim-level; CoRunOptions is the workload-level wrapper).
type MultiSimOptions = sim.MultiOptions

// CoRunOptions configures a benchmark-level co-run cell: base config,
// workload params, SM assignment, and the L2 TLB tenancy mode.
type CoRunOptions = multi.Options

// TLBMode selects the shared L2 TLB's tenancy policy for a co-run.
type TLBMode = multi.TLBMode

// L2 TLB tenancy modes for co-runs.
const (
	TLBSharedMode  = multi.TLBSharedMode
	TLBStaticMode  = multi.TLBStaticMode
	TLBDynamicMode = multi.TLBDynamicMode
)

// SMAssignment divides the GPU's SMs among co-running tenants.
type SMAssignment = sched.SMAssignment

// SM assignment policies for co-runs.
const (
	AssignSpatial     = sched.AssignSpatial
	AssignInterleaved = sched.AssignInterleaved
	AssignShared      = sched.AssignShared
)

// AssignSMs partitions numSMs among tenants under an assignment policy.
func AssignSMs(a SMAssignment, numSMs, tenants int) [][]int {
	return sched.AssignSMs(a, numSMs, tenants)
}

// RunMulti simulates tenants concurrently on one GPU under cfg; the
// result's Tenants field holds the per-tenant breakdown in ASID order.
func RunMulti(cfg Config, tenants []Tenant, opt MultiSimOptions) (Result, error) {
	return sim.RunMulti(cfg, tenants, opt)
}

// NewMultiSimulator builds (without running) a multi-tenant simulator, for
// attaching a tracer or querying the registry.
func NewMultiSimulator(cfg Config, tenants []Tenant, opt MultiSimOptions) (*Simulator, error) {
	return sim.NewMulti(cfg, tenants, opt)
}

// CoRun builds the named benchmarks and runs them concurrently on one GPU.
func CoRun(benches []string, opt CoRunOptions) (Result, error) {
	return multi.CoRun(benches, opt)
}

// WeightedSpeedup is sum_i IPC_i^co-run / IPC_i^solo, the standard
// multi-programming throughput metric.
func WeightedSpeedup(tenants []TenantResult, soloIPC []float64) float64 {
	return multi.WeightedSpeedup(tenants, soloIPC)
}

// MultiRow is one co-run cell of the interference grid.
type MultiRow = experiments.MultiRow

// MultiGrid and RenderMulti run and format the interference study: every
// benchmark pair under the {TLB mode} x {SM assignment} grid. MultiPairs
// enumerates the grid's unordered benchmark pairs.
var (
	MultiGrid   = experiments.MultiGrid
	RenderMulti = experiments.RenderMulti
	MultiPairs  = experiments.MultiPairs
)

// ChurnRow is one cell of the tenant-churn study: a workload pair under one
// L2 TLB tenancy mode with the grid's fixed mid-run arrival pattern.
type ChurnRow = experiments.ChurnRow

// ChurnGrid and RenderChurn run and format the tenant-churn study: every
// benchmark pair under the full L2 TLB tenancy axis — including the online
// partitioning controller — with mid-run arrivals through a bounded
// admission queue.
var (
	ChurnGrid   = experiments.ChurnGrid
	RenderChurn = experiments.RenderChurn
)

// MechRow and MechMultiRow are the solo and co-run cells of the
// translation-mechanism evaluation.
type (
	MechRow      = experiments.MechRow
	MechMultiRow = experiments.MechMultiRow
)

// MechEval/MechMulti run the translation-mechanism study (every benchmark
// solo and every pair co-run under each mechanism); RenderMechEval and
// RenderMechMulti format the tables with per-mechanism geomeans. MechNames
// lists the mechanism axis; a Config runs one through its TLBMech field.
var (
	MechEval        = experiments.MechEval
	MechMulti       = experiments.MechMulti
	RenderMechEval  = experiments.RenderMechEval
	RenderMechMulti = experiments.RenderMechMulti
	MechNames       = experiments.MechNames
)

// SeedSweepRow is the per-seed robustness row.
type SeedSweepRow = experiments.SeedSweepRow

// SMBalanceRow is the per-SM hit-rate spread study row.
type SMBalanceRow = experiments.SMBalanceRow

// Warp scheduler and replacement policy constants.
const (
	WarpGTO        = arch.WarpGTO
	WarpLRR        = arch.WarpLRR
	WarpTransAware = arch.WarpTransAware

	ReplaceLRU    = arch.ReplaceLRU
	ReplaceFIFO   = arch.ReplaceFIFO
	ReplaceRandom = arch.ReplaceRandom
)

// WriteKernelTrace serializes a kernel to the compact binary trace format.
func WriteKernelTrace(w io.Writer, k *Kernel) error { return trace.WriteKernel(w, k) }

// ReadKernelTrace deserializes a kernel written by WriteKernelTrace (or an
// external tracer emitting the same format).
func ReadKernelTrace(r io.Reader) (*Kernel, error) { return trace.ReadKernel(r) }

// NewAddressSpace creates a bare UVM address space for running imported
// traces (pageShift 12 for 4KB pages, 21 for 2MB).
func NewAddressSpace(pageShift uint, seed int64) *AddressSpace {
	return vm.NewAddressSpace(pageShift, seed, 0)
}

// Graph is a CSR graph usable as input for the graph benchmarks.
type Graph = graph.CSR

// ReadDIMACSGraph parses a DIMACS-10 graph file (the format of the paper's
// coPapersCiteseer input).
func ReadDIMACSGraph(r io.Reader) (*Graph, error) { return graph.ReadDIMACS(r) }

// WriteDIMACSGraph exports a graph in DIMACS-10 format.
func WriteDIMACSGraph(w io.Writer, g *Graph) error { return graph.WriteDIMACS(w, g) }

// GenerateGraph builds the synthetic power-law citation graph the suite
// uses in place of coPapersCiteseer.
func GenerateGraph(numNodes, edgesPerNode int, seed int64) *Graph {
	return graph.Generate(numNodes, edgesPerNode, seed)
}

// BuildOnGraph constructs one of the graph benchmarks (bfs, color, mis,
// pagerank) over a caller-provided graph — e.g. the real citation graph
// loaded with ReadDIMACSGraph.
func BuildOnGraph(name string, g *Graph, p Params) (*Kernel, *AddressSpace, error) {
	return workloads.BuildOnGraph(name, g, p)
}
