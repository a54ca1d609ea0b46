package sim

import (
	"fmt"

	"gputlb/internal/arch"
	"gputlb/internal/cache"
	"gputlb/internal/control"
	"gputlb/internal/dram"
	"gputlb/internal/engine"
	"gputlb/internal/noc"
	"gputlb/internal/sched"
	"gputlb/internal/stats"
	"gputlb/internal/tlb"
	"gputlb/internal/tlbmech"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// Sample is one windowed statistics snapshot (Config.SampleInterval > 0).
type Sample struct {
	Cycle engine.Cycle
	// L1HitRate is the hit rate over the window ending at Cycle.
	L1HitRate float64
	// Walks counts page-table walks in the window.
	Walks int64
}

// Result aggregates one simulation run.
type Result struct {
	// Cycles is the end-to-end execution time (completion of the last warp).
	Cycles engine.Cycle
	// L1TLBHitRate is the mean of the per-SM L1 TLB hit rates over SMs that
	// saw traffic — the paper's Figure 2/10 metric.
	L1TLBHitRate float64
	// L1TLBPerSM holds each SM's L1 TLB counters.
	L1TLBPerSM []tlb.Stats
	// L2TLB holds the shared L2 TLB counters.
	L2TLB tlb.Stats
	// Walks is the number of page-table walks; Faults the UVM first-touch
	// faults among them; PWCHits the walks shortened by the page-walk
	// cache (0 unless Config.PWCEntries > 0).
	Walks   int64
	Faults  int64
	PWCHits int64
	// L1Cache aggregates all SMs' data-cache counters; L2Cache the shared
	// cache's.
	L1Cache cache.Stats
	L2Cache cache.Stats
	// InstsIssued counts warp instructions; LineRequests coalesced line
	// accesses; PageRequests coalesced translation requests.
	InstsIssued  int64
	LineRequests int64
	PageRequests int64
	// TBsPerSM records how many TBs each SM executed (scheduling balance).
	TBsPerSM []int
	// Samples holds the windowed time series when Config.SampleInterval > 0.
	Samples []Sample
	// TranslationLatency is a histogram of cycles from translation request
	// to completion, in power-of-two buckets: bucket i counts latencies in
	// (2^i, 2^(i+1)]; bucket 0 also covers latency <= 1. Hits land in the
	// low buckets, L2 TLB hits around 2^6, walks around 2^9-2^10, UVM
	// faults above.
	TranslationLatency [16]int64
	// NoCStalls counts interconnect port waits; DRAMRowHits and
	// DRAMRowMisses describe the memory partitions' row-buffer behaviour.
	NoCStalls     int64
	DRAMRowHits   int64
	DRAMRowMisses int64
	// Tenants holds per-tenant results, in ASID order, for multi-tenant runs
	// (NewMulti with two or more tenants). Single-tenant runs leave it nil so
	// their serialized results stay identical to the pre-tenancy format.
	Tenants []TenantResult `json:"tenants,omitempty"`
	// Stats is the full hierarchical stats tree the run's components
	// registered into — every field above is a view over it. Excluded from
	// JSON results; dump it explicitly (e.g. the CLIs' -stats-out flag).
	Stats *stats.Snapshot `json:"-"`
}

// L1TLBHits and L1TLBAccesses sum the per-SM counters.
func (r Result) L1TLBHits() int64 {
	var n int64
	for _, s := range r.L1TLBPerSM {
		n += s.Hits
	}
	return n
}

// L1TLBAccesses sums per-SM accesses.
func (r Result) L1TLBAccesses() int64 {
	var n int64
	for _, s := range r.L1TLBPerSM {
		n += s.Accesses
	}
	return n
}

type inflight struct {
	ppn  vm.PPN
	done engine.Cycle
}

// pageDone is one coalesced page's resolved translation within a memory
// instruction; executeMem fills a reused buffer of these per issue, in the
// coalescer's page order.
type pageDone struct {
	ppn  vm.PPN
	done engine.Cycle
	hit  bool
}

type warpState struct {
	sm   *smState
	slot int
	// tn is the owning tenant; asid caches tn.asid for the scheduler's
	// residency probes (the zero value is correct for tenant 0, which keeps
	// bare test fixtures valid).
	tn    *tenantState
	asid  vm.ASID
	seq   int64 // dispatch order: GTO "oldest" priority
	insts []trace.Inst
	pc    int
	// lines reads the warp's coalesced memory instructions; it stands at
	// the first memory instruction at or after pc.
	lines trace.LineCursor
	// wake and retire are this warp's event callbacks, built once at
	// dispatch: a warp issues thousands of instructions and scheduling a
	// fresh closure for each was a top allocation site. At most one is
	// pending at a time (a warp is either waiting to wake or retiring), so
	// reuse is safe.
	wake   func()
	retire func()
	// resume re-enters a deferred memory instruction's data-line loop once
	// the barrier has resolved its translations (sharded engine only); pi is
	// the warp's single in-flight deferred instruction.
	resume func()
	pi     *pendingInst
}

type slotState struct {
	active         bool
	tbIndex        int
	remainingWarps int
	dispatchedAt   engine.Cycle
}

type smState struct {
	id          int
	l1tlb       *tlb.TLB
	l1cache     *cache.Cache
	slots       []slotState
	ready       []*warpState // wakeable warps, unordered; GTO picks from here
	last        *warpState   // greedy: last issued warp keeps priority
	tickPending bool
	tickFn      func() // prebuilt issue-tick callback (one pending at a time)
	nextIssueAt engine.Cycle
	rrCursor    int64 // loose round-robin rotation point
	inflight    *inflightTable
	// missHandlers are the SM's translation-miss MSHRs: an L1 TLB miss
	// occupies one until the translation returns, so miss floods back up
	// into the SM instead of being hidden by warp parallelism.
	missHandlers []engine.Cycle
	// Hot-path scratch, owned by the SM so the sharded engine's phase-1
	// workers never share a buffer: one coalesced memory instruction
	// produces at most WarpSize pages/lines, so these are sized once and
	// reused for every instruction the SM issues.
	coal     trace.Coalesced
	transBuf []pageDone
	pickCoal trace.Coalesced // trans-aware warp scheduler's residency probes
	orderBuf []int
	// Decaying <hits,total> counters backing the scheduler's hardware table.
	schedHits, schedTotal int64
	tbsRun                int
	// shard is the SM's private execution context on the sharded engine
	// (nil on the serial engine); pendBuf is its per-instruction page
	// scratch, alongside the buffers above.
	shard   *shardCtx
	pendBuf []pendPage
	// slMSHR banks the translation MSHRs per address slice (sharded engine
	// only; inflight and missHandlers are the serial engine's): phase 1
	// reads the bank owning the VPN, and only that slice's barrier pass
	// ever writes it.
	slMSHR []sliceMSHR
}

// Simulator runs one or more kernels to completion under one configuration.
// Single-kernel runs (New) are the one-tenant special case of the
// multi-tenant core (NewMulti) and behave bit-identically to the
// pre-tenancy simulator.
type Simulator struct {
	cfg arch.Config
	// tenants holds the co-running kernels in ASID order; single-kernel runs
	// have exactly one, spanning every SM.
	tenants []*tenantState
	// l2Partitioned records whether the shared L2 TLB is partitioned per
	// ASID (multi-tenant IndexByTB/IndexByTBShared); a finished tenant then
	// releases its partition's sharing state like a finished TB does.
	l2Partitioned bool

	// Machine slots: the initial tenants define numSlots slots, each owning
	// an SM list and (when l2Partitioned) an L2 TLB set range. slotOwner[i]
	// is the tenant currently executing in slot i (nil after a departure
	// with no queued arrival); slotSMs[i] its SM list, which the online
	// controller may resize. l2Bounds mirrors the L2 TLB's explicit set
	// partition when a controller manages it (nil otherwise: equal split).
	numSlots  int
	slotSMs   [][]int
	slotOwner []*tenantState
	l2Bounds  []int

	// Churn: admitQ holds arrived tenants waiting for a free slot (bounded
	// by queueCap); churn marks that arrivals exist at all.
	churn    bool
	admitQ   []*tenantState
	queueCap int

	// Online partitioning controller (AttachController). ctlFn is the
	// prebuilt periodic-tick callback; the tick is a global-queue event, so
	// the sharded engine's epochs truncate at it and the counters it samples
	// are identical at every worker count and epoch length.
	ctl        *control.Controller
	ctlPeriod  engine.Cycle
	ctlFn      func()
	ctlSamples []control.Sample

	queue engine.Queue
	clock engine.Cycle

	sms        []*smState
	l2tlb      *tlb.TLB
	l2cache    *cache.Cache
	xbar       *noc.Crossbar
	mem        *dram.DRAM
	l2Inflight *inflightTable
	// walkerMeter models the shared walker pool's throughput (NumWalkers
	// concurrent walks of WalkLatency cycles each); l2tlbMeters model the
	// shared L2 TLB's banked lookup ports (the L2 TLB is distributed
	// across memory partitions). Both are order-insensitive window meters:
	// L1 miss floods queue up, which is what makes L1 thrashing expensive
	// end to end.
	walkerMeter noc.Meter
	l2tlbMeters []noc.Meter

	samples         []Sample
	lastSampleHits  int64
	lastSampleAcc   int64
	lastSampleWalks int64

	tbsDone         int
	totalTBs        int
	lastDone        engine.Cycle
	warpSeq         int64
	dispatchPending bool
	dispatchFn      func() // prebuilt periodic-dispatch callback
	sampleFn        func() // prebuilt sampling callback

	pwc *tlb.TLB

	// Sharded-engine state (SetCellParallel >= 2): sharded selects the
	// engine inside shared helpers, shards holds the per-SM contexts,
	// profile the phase breakdown, and onSliceApply an optional test
	// observer of each slice pass's canonical op order.
	cellParallel  int
	epochOverride engine.Cycle
	sharded       bool
	shards        []*shardCtx
	profile       ShardProfile
	onSliceApply  func(slice int, t engine.Cycle, shard int, seq int64)

	// Barrier state (SetCellParallel >= 2): l2Slices is the requested slice
	// count, kSlices the effective power-of-two count after geometry
	// clamping, slices the per-slice contexts, xslice the direction-split
	// crossbar, slicePool the barrier's worker pool. l2opt keeps the L2 TLB
	// options for sub-TLB construction; the remaining fields are reused
	// barrier scratch (fence refs, TB-count projection, segment bounds,
	// scaled partition bounds).
	l2Slices   int
	kSlices    int
	sliceShift uint
	sliceBits  uint
	slices     []*sliceCtx
	xslice     *noc.Sliced
	slicePool  *engine.Pool
	l2opt      tlb.Options
	finRefs    []finRef
	projTB     []int
	segStart   []int
	segEnd     []int
	subBounds  []int

	// stats is the run's metric tree; every component registers into it at
	// New time and the sim-owned counters below live in its "sim" root.
	stats        *stats.Registry
	walks        *stats.Counter
	faults       *stats.Counter
	pwcHits      *stats.Counter
	instsIssued  *stats.Counter
	lineRequests *stats.Counter
	pageRequests *stats.Counter
	transLatency *stats.Histogram

	// tracer, when non-nil, receives structured events (TB lifetimes, TLB
	// misses/fills/evictions, page-walk occupancy). tracePID distinguishes
	// concurrent runs sharing one tracer; walkEnds tracks in-flight walk
	// completion times for the occupancy counter track.
	tracer   *stats.Tracer
	tracePID int
	walkEnds []engine.Cycle

	// l1Surcharge is the mechanism's fixed cost on every L1 TLB probe
	// (tlbmech.Spec.ProbeLatency), computed once at construction.
	l1Surcharge int

	lineShift uint
	pageShift uint
}

// New builds a single-kernel simulator: the one-tenant special case of
// NewMulti. The kernel and address space must come from the same workload
// build; cfg must be valid.
func New(cfg arch.Config, kernel *trace.Kernel, as *vm.AddressSpace) (*Simulator, error) {
	return NewMulti(cfg, []Tenant{{Name: kernel.Name, Kernel: kernel, AS: as}}, MultiOptions{})
}

// NewMulti builds a simulator running the given tenants concurrently on one
// GPU. Tenant i gets ASID i; each tenant needs an explicit SM assignment
// when there is more than one (sched.AssignSMs builds the stock policies).
// With a single tenant the options are ignored and the run is bit-identical
// to New.
func NewMulti(cfg arch.Config, tenants []Tenant, mopt MultiOptions) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := validateTenants(cfg, tenants); err != nil {
		return nil, err
	}
	if err := validateChurn(cfg, len(tenants), mopt.Churn); err != nil {
		return nil, err
	}
	mechSpec, err := tlbmech.ParseSpec(cfg.TLBMech)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	allocMode, err := vm.ParseAllocMode(cfg.AllocMode)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s := &Simulator{
		cfg:         cfg,
		l2cache:     cache.New(cfg.L2Cache),
		l2tlbMeters: make([]noc.Meter, cfg.L2TLBPorts),
		l2Inflight:  newInflightTable(cfg.NumSMs * cfg.TranslationMSHRs),
		l1Surcharge: mechSpec.ProbeLatency(),
		lineShift:   uintLog2(cfg.L1Cache.LineBytes),
		pageShift:   cfg.PageShift(),
	}
	slots := 0
	for i, t := range tenants {
		sms := t.SMs
		if sms == nil {
			sms = make([]int, cfg.NumSMs)
			for j := range sms {
				sms[j] = j
			}
		}
		tn := &tenantState{
			asid:      vm.ASID(i),
			name:      t.Name,
			kernel:    t.Kernel,
			as:        t.AS,
			sms:       sms,
			slot:      i,
			active:    true,
			policy:    sched.NewPolicy(cfg.TBScheduler),
			statusBuf: make([]sched.SMStatus, len(sms)),
		}
		s.tenants = append(s.tenants, tn)
		s.totalTBs += len(t.Kernel.TBs)
		if n := t.Kernel.ConcurrentTBsPerSM(cfg); n > slots {
			slots = n
		}
	}
	s.numSlots = len(tenants)
	s.slotSMs = make([][]int, s.numSlots)
	s.slotOwner = make([]*tenantState, s.numSlots)
	for i, tn := range s.tenants {
		s.slotSMs[i] = tn.sms
		s.slotOwner[i] = tn
	}
	if mopt.Churn != nil {
		s.churn = true
		s.queueCap = mopt.Churn.QueueCap
		for _, a := range mopt.Churn.Arrivals {
			tn := &tenantState{
				asid:      vm.ASID(len(s.tenants)),
				name:      a.Tenant.Name,
				kernel:    a.Tenant.Kernel,
				as:        a.Tenant.AS,
				slot:      -1,
				isArrival: true,
				arriveAt:  a.At,
				policy:    sched.NewPolicy(cfg.TBScheduler),
			}
			s.tenants = append(s.tenants, tn)
			s.totalTBs += len(a.Tenant.Kernel.TBs)
			if n := a.Tenant.Kernel.ConcurrentTBsPerSM(cfg); n > slots {
				slots = n
			}
		}
	}
	// Every kernel is coalesced once, into the line stream its warps read
	// (kept with the kernel, so later cells on the same trace reuse it).
	for _, tn := range s.tenants {
		if tn.lines, err = tn.kernel.Lines(s.lineShift); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if allocMode != vm.AllocFirstTouch {
		// Every tenant space (including churn arrivals) demand-pages under
		// the selected policy; spaces must be pristine at this point.
		for _, tn := range s.tenants {
			if err := tn.as.SetAllocMode(allocMode); err != nil {
				return nil, fmt.Errorf("sim: tenant %q: %w", tn.name, err)
			}
		}
	}
	s.dispatchFn = func() {
		s.dispatchPending = false
		s.dispatch()
	}
	s.sampleFn = s.sample
	s.xbar = noc.New(cfg.NumSMs, cfg.MemPartitions, cfg.InterconnectLatency, cfg.NoCServiceCycles)
	s.mem = dram.New(dram.Config{
		Partitions:    cfg.MemPartitions,
		BanksPerPart:  cfg.DRAMBanksPerPart,
		RowBytes:      cfg.DRAMRowBytes,
		RowHitCycles:  cfg.DRAMRowHitLatency,
		RowMissCycles: cfg.DRAMLatency,
		LineBytes:     cfg.L1Cache.LineBytes,
	})
	// The shared L2 TLB is fully shared by default; multi-tenant runs may
	// instead partition its sets per ASID (the paper's TB-id partitioning
	// with the tenant in the TB's role), optionally with the dynamic
	// adjacent-set sharing rule.
	l2opt := tlb.Options{
		Policy:      arch.IndexByAddress,
		Replacement: cfg.TLBReplacement,
		Mech:        mechSpec,
	}
	if len(tenants) > 1 && mopt.L2TLBPolicy != arch.IndexByAddress {
		l2opt.Policy = mopt.L2TLBPolicy
		l2opt.Sharing = cfg.SharingMode
		l2opt.ShareCounterThreshold = cfg.ShareCounterThreshold
		s.l2Partitioned = true
	}
	s.l2tlb = tlb.New(cfg.L2TLB, l2opt)
	s.l2opt = l2opt // sub-TLB construction for the sliced barrier
	if s.l2Partitioned {
		s.l2tlb.ConfigureSlots(s.numSlots)
	}
	if cfg.PWCEntries > 0 {
		// Fully-associative page-walk cache of last-level PT pointers.
		s.pwc = tlb.New(arch.TLBConfig{Entries: cfg.PWCEntries, Assoc: cfg.PWCEntries, LookupLatency: 1},
			tlb.Options{Policy: arch.IndexByAddress})
	}
	// The PWC above deliberately stays on the base mechanism: it caches
	// per-tenant page-table pointers (reach-1, tenant-private by
	// construction), where sub-entry sharing and run coalescing have no
	// analogue.
	l1opt := tlb.Options{
		Policy:                cfg.TLBIndexPolicy,
		Sharing:               cfg.SharingMode,
		ShareCounterThreshold: cfg.ShareCounterThreshold,
		Replacement:           cfg.TLBReplacement,
		Mech:                  mechSpec,
	}
	for i := 0; i < cfg.NumSMs; i++ {
		smID := i
		opt := l1opt
		// L1 victims refresh the shared L2 TLB so translations held by an SM
		// do not age out of the L2 while they are hot in an L1. The victim's
		// ASID rides along so the write-back lands in its tenant's partition.
		opt.OnEvict = func(asid vm.ASID, vpn vm.VPN, ppn vm.PPN) {
			if s.sharded {
				// Phase-1 eviction (placeholder inserts are the only L1
				// insertions the sharded engine performs, and fills are
				// payload-only updates): buffer the write-back as a shared
				// op for the barrier instead of touching the L2 TLB here.
				sh := s.sms[smID].shard
				sh.ops = append(sh.ops, sharedOp{
					t: sh.clock, seq: sh.seq, kind: opEvict,
					asid: asid, vpn: vpn, ppn: ppn,
				})
				sh.seq++
				return
			}
			sl := s.tenants[asid].slot
			if !s.l2tlb.ContainsA(asid, sl, vpn) {
				s.l2tlb.InsertA(asid, sl, vpn, ppn)
			}
			if s.tracer.Enabled() {
				s.tracer.Instant(s.tracePID, smID, "l1tlb_evict", "tlb",
					int64(s.clock), map[string]int64{"vpn": int64(vpn)})
			}
		}
		sm := &smState{
			id:           i,
			l1tlb:        tlb.New(cfg.L1TLB, opt),
			l1cache:      cache.New(cfg.L1Cache),
			slots:        make([]slotState, slots),
			inflight:     newInflightTable(cfg.TranslationMSHRs),
			missHandlers: make([]engine.Cycle, cfg.TranslationMSHRs),
			coal:         newCoalesced(),
			transBuf:     make([]pageDone, arch.WarpSize),
			pickCoal:     newCoalesced(),
			pendBuf:      make([]pendPage, 0, arch.WarpSize),
		}
		sm.tickFn = func() { s.tick(sm) }
		sm.l1tlb.ConfigureSlots(slots)
		s.sms = append(s.sms, sm)
	}
	s.buildRegistry()
	return s, nil
}

// buildRegistry assembles the run's stats tree: sim-owned counters at the
// root and one child node per hardware component. Every value is read
// lazily, so snapshots taken after Run reflect the finished run.
func (s *Simulator) buildRegistry() {
	root := stats.NewRegistry("sim")
	s.stats = root
	s.walks = root.Counter("walks")
	s.faults = root.Counter("uvm_faults")
	s.pwcHits = root.Counter("pwc_hits")
	s.instsIssued = root.Counter("insts_issued")
	s.lineRequests = root.Counter("line_requests")
	s.pageRequests = root.Counter("page_requests")
	s.transLatency = root.Histogram("translation_latency", len(Result{}.TranslationLatency))
	root.CounterFunc("tbs_done", func() int64 { return int64(s.tbsDone) })
	root.CounterFunc("cycles", func() int64 { return int64(s.lastDone) })

	for _, sm := range s.sms {
		smReg := root.Child(fmt.Sprintf("sm%02d", sm.id))
		sm.l1tlb.RegisterStats(smReg.Child("l1tlb"))
		sm.l1cache.RegisterStats(smReg.Child("l1cache"))
		tbs := sm
		smReg.CounterFunc("tbs_run", func() int64 { return int64(tbs.tbsRun) })
	}
	s.l2tlb.RegisterStats(root.Child("l2tlb"))
	s.l2cache.RegisterStats(root.Child("l2cache"))
	if s.pwc != nil {
		s.pwc.RegisterStats(root.Child("pwc"))
	}
	s.xbar.RegisterStats(root.Child("noc"))
	s.mem.RegisterStats(root.Child("dram"))
	if len(s.tenants) == 1 {
		// Single-tenant layout: identical node names to the pre-tenancy
		// registry, so golden stats snapshots stay byte-for-byte stable.
		s.tenants[0].as.RegisterStats(root.Child("vm"))
		s.tenants[0].policy.Stats().RegisterStats(root.Child("sched"))
		return
	}
	for _, tn := range s.tenants {
		tn := tn
		tr := root.Child(fmt.Sprintf("tenant%02d", tn.asid))
		tr.CounterFunc("cycles", func() int64 { return int64(tn.lastDone) })
		tr.CounterFunc("tbs_done", func() int64 { return int64(tn.tbsDone) })
		tr.CounterFunc("insts_issued", func() int64 { return tn.insts })
		tr.CounterFunc("page_requests", func() int64 { return tn.pageReqs })
		tr.CounterFunc("l1_tlb_hits", func() int64 { return tn.l1Hits })
		tr.CounterFunc("l2_tlb_hits", func() int64 { return tn.l2Hits })
		tr.CounterFunc("walks", func() int64 { return tn.walks })
		tr.CounterFunc("uvm_faults", func() int64 { return tn.faults })
		tr.CounterFunc("stall_l1", func() int64 { return tn.stallL1 })
		tr.CounterFunc("stall_l2", func() int64 { return tn.stallL2 })
		tr.CounterFunc("stall_walk", func() int64 { return tn.stallWalk })
		tr.CounterFunc("stall_fault", func() int64 { return tn.stallFault })
		tn.as.RegisterStats(tr.Child("vm"))
		tn.policy.Stats().RegisterStats(tr.Child("sched"))
	}
}

// Registry returns the run's stats tree for querying or late registration.
func (s *Simulator) Registry() *stats.Registry { return s.stats }

// SetTracer attaches an event tracer (nil disables tracing). pid tags this
// run's events, letting a parallel sweep share one tracer across cells.
// Call before Run.
func (s *Simulator) SetTracer(t *stats.Tracer, pid int) {
	s.tracer = t
	s.tracePID = pid
}

// newCoalesced returns a Coalesced whose buffers hold any warp's
// instruction, so decoding into it never allocates.
func newCoalesced() trace.Coalesced {
	return trace.Coalesced{
		Pages:    make([]vm.VPN, 0, arch.WarpSize),
		Lines:    make([]vm.Addr, 0, arch.WarpSize),
		LinePage: make([]int, 0, arch.WarpSize),
	}
}

func uintLog2(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Run simulates every tenant's kernel to completion and returns the results.
// With SetCellParallel(n >= 2) the sharded epoch-barrier engine runs the
// SMs on up to n workers; otherwise the serial engine runs them on one
// queue exactly as before.
func (s *Simulator) Run() Result {
	if s.cellParallel >= 2 {
		return s.runSharded(s.cellParallel)
	}
	s.scheduleArrivals()
	s.dispatch()
	if s.cfg.SampleInterval > 0 {
		s.queue.Schedule(engine.Cycle(s.cfg.SampleInterval), s.sampleFn)
	}
	if s.ctl != nil {
		s.queue.Schedule(s.ctlPeriod, s.ctlFn)
	}
	for s.queue.Len() > 0 {
		ev := s.queue.Pop()
		if ev.At < s.clock {
			pastEvent(ev.At, s.clock)
		}
		s.clock = ev.At
		ev.Fn()
	}
	if s.tbsDone != s.totalTBs {
		panic(fmt.Sprintf("sim: deadlock — %d of %d TBs finished", s.tbsDone, s.totalTBs))
	}
	return s.result()
}

// pastEvent reports an event that popped behind the clock about to fire it:
// something scheduled it in the past, a state only a simulator bug can
// produce. Every engine's event loop checks, so the bug surfaces at the
// first misordered event rather than as silently wrong timing.
func pastEvent(at, clock engine.Cycle) {
	panic(fmt.Sprintf("sim: event at cycle %d scheduled in the past (clock %d)", at, clock))
}

// sample records one windowed statistics snapshot and re-arms itself while
// the simulation has pending work.
func (s *Simulator) sample() {
	var hits, acc int64
	for _, sm := range s.sms {
		st := sm.l1tlb.Stats()
		hits += st.Hits
		acc += st.Accesses
	}
	dAcc := acc - s.lastSampleAcc
	var rate float64
	if dAcc > 0 {
		rate = float64(hits-s.lastSampleHits) / float64(dAcc)
	}
	s.samples = append(s.samples, Sample{
		Cycle:     s.clock,
		L1HitRate: rate,
		Walks:     s.walks.Value() - s.lastSampleWalks,
	})
	s.lastSampleHits, s.lastSampleAcc, s.lastSampleWalks = hits, acc, s.walks.Value()
	pending := s.queue.Len() > 0
	for _, sh := range s.shards {
		if pending {
			break
		}
		pending = sh.queue.Len() > 0
	}
	if pending { // only while other work remains
		s.queue.Schedule(s.clock+engine.Cycle(s.cfg.SampleInterval), s.sampleFn)
	}
}

func (s *Simulator) result() Result {
	r := Result{
		Cycles:        s.lastDone,
		Walks:         s.walks.Value(),
		Faults:        s.faults.Value(),
		PWCHits:       s.pwcHits.Value(),
		InstsIssued:   s.instsIssued.Value(),
		LineRequests:  s.lineRequests.Value(),
		PageRequests:  s.pageRequests.Value(),
		L2TLB:         s.l2tlb.Stats(),
		L2Cache:       s.l2cache.Stats(),
		Samples:       s.samples,
		NoCStalls:     s.xbar.Stalls(),
		DRAMRowHits:   s.mem.RowHits(),
		DRAMRowMisses: s.mem.RowMisses(),
	}
	copy(r.TranslationLatency[:], s.transLatency.Buckets())
	var rateSum float64
	active := 0
	for _, sm := range s.sms {
		st := sm.l1tlb.Stats()
		r.L1TLBPerSM = append(r.L1TLBPerSM, st)
		if st.Accesses > 0 {
			rateSum += st.HitRate()
			active++
		}
		cs := sm.l1cache.Stats()
		r.L1Cache.Accesses += cs.Accesses
		r.L1Cache.Hits += cs.Hits
		r.L1Cache.Misses += cs.Misses
		r.L1Cache.Evictions += cs.Evictions
		r.TBsPerSM = append(r.TBsPerSM, sm.tbsRun)
	}
	if active > 0 {
		r.L1TLBHitRate = rateSum / float64(active)
	}
	if len(s.tenants) > 1 {
		for _, tn := range s.tenants {
			r.Tenants = append(r.Tenants, tn.result())
		}
	}
	r.Stats = s.stats.Snapshot()
	return r
}

// dispatch places pending TBs onto SMs, rotating over the tenants so no
// tenant starves, until every tenant is blocked: grid exhausted, no free
// slot on its SMs, or a phase barrier. With one tenant this reduces exactly
// to the pre-tenancy loop (place one TB per iteration until blocked).
func (s *Simulator) dispatch() {
	for {
		placed := false
		for _, tn := range s.tenants {
			if !tn.active {
				continue
			}
			if s.placeNext(tn) {
				placed = true
			}
		}
		if !placed {
			return
		}
	}
}

// placeNext tries to place tenant tn's next pending TB onto one of its SMs,
// reporting whether a TB was placed.
func (s *Simulator) placeNext(tn *tenantState) bool {
	if tn.nextTB >= len(tn.kernel.TBs) {
		return false
	}
	if b := tn.phaseBarrier(); tn.nextTB >= b && tn.tbsDone < b {
		return false // wait for the earlier phase to drain
	}
	statuses := tn.statusBuf
	for i, smID := range tn.sms {
		sm := s.sms[smID]
		free := 0
		for _, sl := range sm.slots {
			if !sl.active {
				free++
			}
		}
		statuses[i] = sched.SMStatus{FreeSlots: free, TLBHits: sm.schedHits, TLBTotal: sm.schedTotal}
	}
	smIdx, cur := tn.policy.Pick(statuses, tn.cursor)
	if smIdx < 0 {
		return false
	}
	tn.cursor = cur
	s.place(tn, s.sms[tn.sms[smIdx]], tn.nextTB)
	tn.nextTB++
	return true
}

// place assigns tenant tn's TB tbIndex to a free hardware slot of sm and
// wakes its warps.
func (s *Simulator) place(tn *tenantState, sm *smState, tbIndex int) {
	slot := -1
	for i := range sm.slots {
		if !sm.slots[i].active {
			slot = i
			break
		}
	}
	if slot < 0 {
		panic("sim: place on SM without free slot")
	}
	tb := &tn.kernel.TBs[tbIndex]
	sm.slots[slot] = slotState{active: true, tbIndex: tbIndex, remainingWarps: len(tb.Warps), dispatchedAt: s.clock}
	sm.tbsRun++
	for w := range tb.Warps {
		ws := &warpState{sm: sm, slot: slot, tn: tn, asid: tn.asid, seq: s.warpSeq,
			insts: tb.Warps[w].Insts, lines: tn.lines.Warp(tbIndex, w)}
		if s.sharded {
			ws.wake = func() {
				ws.sm.ready = append(ws.sm.ready, ws)
				s.shardArmTick(ws.sm, ws.sm.shard.clock)
			}
			ws.retire = func() { s.shardRetireWarp(ws) }
			ws.resume = func() { s.shardResume(ws) }
		} else {
			ws.wake = func() {
				ws.sm.ready = append(ws.sm.ready, ws)
				s.armTick(ws.sm, s.clock)
			}
			ws.retire = func() { s.retireWarp(ws) }
		}
		s.warpSeq++
		if len(ws.insts) == 0 {
			s.retireWarp(ws)
			continue
		}
		sm.ready = append(sm.ready, ws)
	}
	s.armTick(sm, s.clock+1)
}

// armTick schedules an issue tick for sm at cycle at (if none pending).
// Called with the global clock current: serial-engine events, or the
// sharded engine's barrier (dispatch placing new TBs), where the tick
// lands on the SM's own queue.
func (s *Simulator) armTick(sm *smState, at engine.Cycle) {
	if sm.tickPending {
		return
	}
	if at < sm.nextIssueAt {
		at = sm.nextIssueAt
	}
	if at <= s.clock {
		at = s.clock + 1
	}
	sm.tickPending = true
	if s.sharded {
		sm.shard.queue.SchedulePri(at, shardPri(s.clock, schedClsGlobal, 0), sm.tickFn)
		return
	}
	s.queue.Schedule(at, sm.tickFn)
}

// tick is one SM issue cycle: up to IssueWidth warps issue, greedy-then-
// oldest order.
func (s *Simulator) tick(sm *smState) {
	sm.tickPending = false
	sm.nextIssueAt = s.clock + 1
	for n := 0; n < s.cfg.IssueWidth && len(sm.ready) > 0; n++ {
		ws := s.pickWarp(sm)
		s.issue(ws)
	}
	if len(sm.ready) > 0 {
		s.armTick(sm, s.clock+1)
	}
}

// pickWarp removes and returns the next warp to issue under the configured
// warp scheduling policy.
func (s *Simulator) pickWarp(sm *smState) *warpState {
	var best int
	switch s.cfg.WarpScheduler {
	case arch.WarpLRR:
		best = s.pickLRR(sm)
	case arch.WarpTransAware:
		best = s.pickTransAware(sm)
	default:
		best = s.pickGTO(sm)
	}
	ws := sm.ready[best]
	sm.ready[best] = sm.ready[len(sm.ready)-1]
	sm.ready = sm.ready[:len(sm.ready)-1]
	sm.last = ws
	if ws.seq > sm.rrCursor {
		sm.rrCursor = ws.seq
	}
	return ws
}

// pickGTO returns the index of the greedy-then-oldest choice: the
// last-issued warp if ready, else the lowest-seq (oldest) ready warp.
func (s *Simulator) pickGTO(sm *smState) int {
	best := -1
	for i, ws := range sm.ready {
		if ws == sm.last {
			return i
		}
		if best < 0 || ws.seq < sm.ready[best].seq {
			best = i
		}
	}
	return best
}

// pickLRR returns the index of the loose round-robin choice: the ready warp
// with the smallest seq above the rotation cursor, wrapping to the oldest.
func (s *Simulator) pickLRR(sm *smState) int {
	above, oldest := -1, -1
	for i, ws := range sm.ready {
		if ws.seq > sm.rrCursor && (above < 0 || ws.seq < sm.ready[above].seq) {
			above = i
		}
		if oldest < 0 || ws.seq < sm.ready[oldest].seq {
			oldest = i
		}
	}
	if above >= 0 {
		return above
	}
	return oldest
}

// pickTransAware returns the index of the translation reuse-aware choice
// (the paper's future-work warp scheduler): in greedy-then-oldest order,
// prefer a warp whose next instruction needs no new translation — compute,
// or a memory access whose coalesced pages are all L1 TLB resident. Falls
// back to plain GTO when no ready warp qualifies. Probing is bounded to
// keep the scheduler implementable.
func (s *Simulator) pickTransAware(sm *smState) int {
	const maxProbe = 8
	gto := s.pickGTO(sm)
	order := sm.orderBuf[:0]
	if sm.last != nil {
		for i, ws := range sm.ready {
			if ws == sm.last {
				order = append(order, i)
				break
			}
		}
	}
	for i := range sm.ready {
		if len(order) > 0 && i == order[0] && sm.ready[i] == sm.last {
			continue
		}
		order = append(order, i)
	}
	sm.orderBuf = order // keep any growth so later picks stay allocation-free
	probed := 0
	bestIdx, bestSeq := -1, int64(-1)
	for _, i := range order {
		if probed >= maxProbe {
			break
		}
		ws := sm.ready[i]
		in := ws.insts[ws.pc]
		resident := true
		if in.IsMem() {
			probed++
			peek := ws.lines
			peek.Next(&sm.pickCoal, s.pageShift)
			for _, vpn := range sm.pickCoal.Pages {
				if !sm.l1tlb.ContainsA(ws.asid, ws.slot, vpn) {
					resident = false
					break
				}
			}
		}
		if resident {
			if ws == sm.last {
				return i // greedy hit: issue immediately
			}
			if bestIdx < 0 || ws.seq < bestSeq {
				bestIdx, bestSeq = i, ws.seq
			}
		}
	}
	if bestIdx >= 0 {
		return bestIdx
	}
	return gto
}

// issue executes one instruction of ws at the current cycle.
func (s *Simulator) issue(ws *warpState) {
	in := ws.insts[ws.pc]
	ws.pc++
	s.instsIssued.Inc()
	ws.tn.insts++

	var done engine.Cycle
	if in.IsMem() {
		done = s.executeMem(ws)
	} else {
		c := in.Compute
		if c < 1 {
			c = 1
		}
		done = s.clock + engine.Cycle(c)
	}

	if ws.pc >= len(ws.insts) {
		if done > s.lastDone {
			s.lastDone = done
		}
		if done > ws.tn.lastDone {
			ws.tn.lastDone = done
		}
		s.queue.Schedule(done, ws.retire)
		return
	}
	s.queue.Schedule(done, ws.wake)
}

// retireWarp accounts a finished warp; the last warp of a TB frees the slot,
// resets the TLB sharing flags for that TB id, and triggers dispatch. A
// tenant's last TB additionally releases its L2 TLB partition's sharing
// state (multi-tenant partitioned runs only).
func (s *Simulator) retireWarp(ws *warpState) {
	sm := ws.sm
	sl := &sm.slots[ws.slot]
	sl.remainingWarps--
	if sm.last == ws {
		sm.last = nil
	}
	if sl.remainingWarps > 0 {
		return
	}
	sl.active = false
	if s.tracer.Enabled() {
		s.tracer.Complete(s.tracePID, sm.id, fmt.Sprintf("TB %d", sl.tbIndex), "tb",
			int64(sl.dispatchedAt), int64(s.clock-sl.dispatchedAt), nil)
	}
	sm.l1tlb.OnTBFinish(ws.slot)
	tn := ws.tn
	tn.tbsDone++
	s.tbsDone++
	if tn.tbsDone == len(tn.kernel.TBs) {
		if s.l2Partitioned {
			s.l2tlb.OnTBFinish(tn.slot)
		}
		s.depart(tn)
	}
	s.scheduleDispatch()
}

// scheduleDispatch arms the TB scheduler's next periodic run. Freed slots
// accumulate until it fires, so the scheduler sees several candidate SMs at
// once — the situation where the TLB-aware policy differs from round-robin.
func (s *Simulator) scheduleDispatch() {
	if s.dispatchPending {
		return
	}
	pending := false
	for _, tn := range s.tenants {
		if tn.active && tn.nextTB < len(tn.kernel.TBs) {
			pending = true
			break
		}
	}
	if !pending {
		return
	}
	s.dispatchPending = true
	period := engine.Cycle(s.cfg.TBDispatchPeriod)
	at := (s.clock/period + 1) * period
	s.queue.Schedule(at, s.dispatchFn)
}

// executeMem runs one coalesced memory instruction and returns its
// completion cycle: translations for every distinct page, then the data
// accesses of every distinct line, each starting when its page's
// translation completes. The warp blocks until the slowest request.
func (s *Simulator) executeMem(ws *warpState) engine.Cycle {
	sm, slot, tn := ws.sm, ws.slot, ws.tn
	c := &sm.coal
	ws.lines.Next(c, s.pageShift)
	pages := c.Pages
	s.pageRequests.Add(int64(len(pages)))
	tn.pageReqs += int64(len(pages))

	trans := sm.transBuf[:len(pages)]
	instDone := s.clock + 1
	for i, vpn := range pages {
		ppn, done, hit := s.translate(tn, sm, slot, vpn)
		trans[i] = pageDone{ppn, done, hit}
		s.recordTranslationLatency(done - s.clock)
		if done > instDone {
			instDone = done
		}
	}

	s.lineRequests.Add(int64(len(c.Lines)))
	linesPerPage := s.pageShift - s.lineShift
	for i, line := range c.Lines {
		pd := trans[c.LinePage[i]]
		phys := cache.LineAddr(uint64(pd.ppn)<<linesPerPage | uint64(line)&(1<<linesPerPage-1))
		// VIPT: on an L1 TLB hit the cache is indexed in parallel with the
		// lookup, so the data access starts immediately; a miss must wait
		// for the physical tag.
		start := s.clock
		if !pd.hit {
			start = pd.done
		}
		done := s.dataAccess(sm, phys, start)
		if pd.done > done {
			done = pd.done
		}
		if done > instDone {
			instDone = done
		}
	}
	return instDone
}

// recordTranslationLatency buckets one translation's request-to-completion
// latency into the power-of-two histogram.
func (s *Simulator) recordTranslationLatency(lat engine.Cycle) {
	s.transLatency.Observe(int64(lat))
}

// dataAccess models the data path for one line from cycle start: L1 cache,
// then on a miss the shared tail (crossbar, L2 slice, DRAM).
func (s *Simulator) dataAccess(sm *smState, phys cache.LineAddr, start engine.Cycle) engine.Cycle {
	if sm.l1cache.Access(phys) {
		return start + engine.Cycle(s.cfg.L1Cache.HitLatency)
	}
	return s.dataMiss(sm, phys, start)
}

// dataMiss is the shared-resource tail of a data access that missed the L1
// cache: the crossbar to the line's memory partition, the L2 cache slice,
// on an L2 miss the partition's DRAM banks, then the reply traversal. The
// serial engine calls it inline from dataAccess; dataMissSliced is the
// sharded engine's counterpart, run inside a slice pass.
func (s *Simulator) dataMiss(sm *smState, phys cache.LineAddr, start engine.Cycle) engine.Cycle {
	t := start + engine.Cycle(s.cfg.L1Cache.HitLatency)
	part := s.mem.Partition(phys)
	arrive := s.xbar.Traverse(sm.id, part, t)
	t = arrive + engine.Cycle(s.cfg.L2Cache.HitLatency)
	if !s.l2cache.Access(phys) {
		t = s.mem.Access(phys, t)
	}
	return s.xbar.Return(part, sm.id, t)
}

// translate resolves tenant tn's VPN through L1 TLB -> L2 TLB -> page-table
// walkers, returning the PPN, the cycle the translation is available to the
// SM, and whether it hit in the L1 TLB (a VIPT hit overlaps the cache
// access). Every structure along the path is ASID-aware: TLB and PWC
// entries are tagged, and the MSHR/in-flight tables key on the
// ASID-qualified VPN so same-VPN misses from different tenants never merge.
// The per-tenant stall counters classify the request by where it resolved.
func (s *Simulator) translate(tn *tenantState, sm *smState, slot int, vpn vm.VPN) (vm.PPN, engine.Cycle, bool) {
	asid := tn.asid
	ppn, hit, probed := sm.l1tlb.LookupA(asid, slot, vpn)
	cost := probed*s.cfg.L1TLB.LookupLatency + s.l1Surcharge
	sm.schedTotal++
	if hit {
		sm.schedHits++
	}
	if sm.schedTotal >= 4096 { // keep the table "instantaneous": decay
		sm.schedTotal >>= 1
		sm.schedHits >>= 1
	}
	t1 := s.clock + engine.Cycle(cost)
	if hit {
		tn.l1Hits++
		tn.stallL1 += int64(t1 - s.clock)
		return ppn, t1, true
	}
	if s.tracer.Enabled() {
		s.tracer.Instant(s.tracePID, sm.id, "l1tlb_miss", "tlb",
			int64(s.clock), map[string]int64{"vpn": int64(vpn)})
	}
	ppn, done := s.translateMiss(tn, sm, slot, vpn, t1)
	return ppn, done, false
}

// pendingBase is the sentinel PPN the sharded engine installs in an L1 TLB
// entry at miss time; the barrier later rewrites it with the real
// translation. Detection is a range check (pendingThreshold) rather than
// equality because compressed entries return base+offset PPNs, shifting the
// sentinel by up to the group size in either direction. Real PPNs are
// allocated densely from zero and can never reach the threshold.
const (
	pendingBase      vm.PPN = 1 << 48
	pendingThreshold vm.PPN = 1 << 47
)

// translateMiss is the serial engine's shared-resource tail of a
// translation that missed the SM's L1 TLB: MSHR merge/occupancy, the
// crossbar to the L2 TLB bank, the walker pool, and the reply, filling the
// L1 TLB (fill time sets the entry's replacement age) on every path but
// the MSHR merge. t1 is the cycle the L1 lookup resolved; the request's
// issue cycle is s.clock. translateMissSliced is the sharded engine's
// counterpart, run inside a slice pass.
func (s *Simulator) translateMiss(tn *tenantState, sm *smState, slot int, vpn vm.VPN, t1 engine.Cycle) (vm.PPN, engine.Cycle) {
	asid := tn.asid
	key := tenantKey(asid, vpn)

	// Merge with an in-flight miss to the same page from this SM (MSHR).
	if inf, ok := sm.inflight.get(key); ok && inf.done > s.clock {
		if t1 > inf.done {
			tn.stallWalk += int64(t1 - s.clock)
			return inf.ppn, t1
		}
		tn.stallWalk += int64(inf.done - s.clock)
		return inf.ppn, inf.done
	}

	// A new miss needs a free translation MSHR; when all are occupied the
	// request waits for the earliest one.
	h := 0
	for i := 1; i < len(sm.missHandlers); i++ {
		if sm.missHandlers[i] < sm.missHandlers[h] {
			h = i
		}
	}
	if sm.missHandlers[h] > t1 {
		t1 = sm.missHandlers[h]
	}

	tlbPart := int(uint64(vpn) % uint64(s.cfg.MemPartitions))
	t2 := s.xbar.Traverse(sm.id, tlbPart, t1)
	ppn2, hit2, probed2 := s.l2tlb.LookupA(asid, tn.slot, vpn)
	// The L2 TLB bank for this VPN serves one probe at a time: queue
	// behind earlier probes, then occupy the port for the lookup.
	bank := int(vpn) % len(s.l2tlbMeters)
	l2cost := probed2 * s.cfg.L2TLB.LookupLatency
	start := s.l2tlbMeters[bank].Reserve(t2, l2cost)
	t3 := start + engine.Cycle(l2cost)
	if hit2 {
		done := s.xbar.Return(tlbPart, sm.id, t3)
		sm.l1tlb.InsertA(asid, slot, vpn, ppn2)
		s.traceFill(sm.id, vpn, done, "l2tlb")
		sm.inflight.put(key, ppn2, done, s.clock)
		sm.missHandlers[h] = done
		tn.l2Hits++
		tn.stallL2 += int64(done - s.clock)
		return ppn2, done
	}

	// Merge with a walk in flight from another SM of the same tenant.
	if inf, ok := s.l2Inflight.get(key); ok && inf.done > s.clock {
		wait := inf.done
		if t3 > wait {
			wait = t3
		}
		done := s.xbar.Return(tlbPart, sm.id, wait)
		sm.l1tlb.InsertA(asid, slot, vpn, inf.ppn)
		sm.inflight.put(key, inf.ppn, done, s.clock)
		sm.missHandlers[h] = done
		tn.stallWalk += int64(done - s.clock)
		return inf.ppn, done
	}

	// Page-table walk (first touch demand-pages under UVM). A page-walk
	// cache hit on the 2MB region's last-level pointer skips the upper
	// levels, leaving only the leaf reference.
	wppn, faulted := tn.as.Touch(vm.Addr(vpn) << s.pageShift)
	lat := engine.Cycle(s.cfg.WalkLatency)
	if s.pwc != nil {
		region := vm.VPN(vpn >> 9)
		if _, hit, _ := s.pwc.LookupA(asid, 0, region); hit {
			lat = engine.Cycle(s.cfg.WalkLatency / vm.Levels)
			s.pwcHits.Inc()
		} else {
			s.pwc.InsertA(asid, 0, region, 0)
		}
	}
	if faulted {
		lat += engine.Cycle(s.cfg.PageFaultLatency)
	}
	// The walk occupies one of NumWalkers servers: the pool's aggregate
	// throughput is modelled by metering 1/NumWalkers of the latency.
	poolCost := int(lat) / s.cfg.NumWalkers
	if poolCost < 1 {
		poolCost = 1
	}
	wstart := s.walkerMeter.Reserve(t3, poolCost)
	wdone := wstart + lat
	s.walks.Inc()
	tn.walks++
	if faulted {
		s.faults.Inc()
		tn.faults++
	}
	s.traceWalk(sm.id, vpn, wstart, wdone, faulted)

	s.l2tlb.InsertA(asid, tn.slot, vpn, wppn)
	sm.l1tlb.InsertA(asid, slot, vpn, wppn)
	s.traceFill(sm.id, vpn, wdone, "walk")
	s.l2Inflight.put(key, wppn, wdone, s.clock)
	done := s.xbar.Return(tlbPart, sm.id, wdone)
	sm.inflight.put(key, wppn, done, s.clock)
	sm.missHandlers[h] = done
	if faulted {
		tn.stallFault += int64(done - s.clock)
	} else {
		tn.stallWalk += int64(done - s.clock)
	}
	return wppn, done
}

// traceFill emits an instant event for a translation filling into an SM's L1
// TLB, tagged with where it came from ("l2tlb" or "walk"). No-op when
// tracing is off.
func (s *Simulator) traceFill(smID int, vpn vm.VPN, at engine.Cycle, src string) {
	if !s.tracer.Enabled() {
		return
	}
	s.tracer.Instant(s.tracePID, smID, "l1tlb_fill_"+src, "tlb",
		int64(at), map[string]int64{"vpn": int64(vpn)})
}

// traceWalk emits one page-table walk as a complete event on the walker
// track plus a counter sample of in-flight walks (walker occupancy). The
// walkEnds bookkeeping only feeds the trace, so tracing cannot perturb the
// simulated timing. No-op when tracing is off.
func (s *Simulator) traceWalk(smID int, vpn vm.VPN, start, done engine.Cycle, faulted bool) {
	if !s.tracer.Enabled() {
		return
	}
	// Drop walks that completed before this one started; the survivors plus
	// this walk are the pool's occupancy at `start`.
	live := s.walkEnds[:0]
	for _, end := range s.walkEnds {
		if end > start {
			live = append(live, end)
		}
	}
	s.walkEnds = append(live, done)
	f := int64(0)
	if faulted {
		f = 1
	}
	s.tracer.Complete(s.tracePID, walkerTID, "walk", "walker",
		int64(start), int64(done-start),
		map[string]int64{"vpn": int64(vpn), "sm": int64(smID), "fault": f})
	s.tracer.CounterEvent(s.tracePID, "walkers", int64(start),
		map[string]int64{"in_flight": int64(len(s.walkEnds))})
}

// walkerTID is the trace track for the shared walker pool, placed well
// above any SM id.
const walkerTID = 1 << 20

// Run is the package-level convenience: build and run in one call.
func Run(cfg arch.Config, kernel *trace.Kernel, as *vm.AddressSpace) (Result, error) {
	s, err := New(cfg, kernel, as)
	if err != nil {
		return Result{}, err
	}
	return s.Run(), nil
}

// RunMulti is the multi-tenant convenience: build and run in one call.
func RunMulti(cfg arch.Config, tenants []Tenant, opt MultiOptions) (Result, error) {
	s, err := NewMulti(cfg, tenants, opt)
	if err != nil {
		return Result{}, err
	}
	return s.Run(), nil
}
