package sim

import (
	"errors"
	"fmt"

	"gputlb/internal/arch"
	"gputlb/internal/engine"
	"gputlb/internal/sched"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// Tenant is one co-running kernel of a multi-tenant simulation. Its ASID is
// its index in the tenant slice passed to NewMulti.
type Tenant struct {
	// Name labels the tenant in results (usually the benchmark name).
	Name string
	// Kernel and AS are the tenant's trace and private UVM address space;
	// the pair must come from the same workload build.
	Kernel *trace.Kernel
	AS     *vm.AddressSpace
	// SMs lists the SM ids this tenant may dispatch TBs to (see
	// sched.AssignSMs for the stock policies); nil means every SM.
	SMs []int
}

// MultiOptions tunes the shared translation hardware of a multi-tenant run.
// The zero value leaves every structure fully shared.
type MultiOptions struct {
	// L2TLBPolicy selects how the shared L2 TLB treats tenants:
	// IndexByAddress (default) leaves it fully shared — ASID-tagged entries
	// in one common replacement pool; IndexByTB statically partitions its
	// sets per ASID; IndexByTBShared adds the paper's dynamic adjacent-set
	// sharing rule on top of the static partition, with the tenant in the
	// role the TB id plays in the single-kernel design.
	L2TLBPolicy arch.TLBIndexPolicy
	// Churn, when non-nil, adds tenants that arrive mid-run: the initial
	// tenants define the machine's slots, and arriving kernels are admitted
	// into slots freed by departures, queue while none is free, or are shed
	// when the queue is full — a MIG-like service under traffic.
	Churn *ChurnSpec
}

// ChurnArrival is one kernel arriving mid-run.
type ChurnArrival struct {
	// Tenant describes the arriving kernel. Its SMs field must be nil: an
	// admitted arrival inherits the SM list of the slot it lands in.
	Tenant Tenant
	// At is the arrival cycle (> 0). Arrivals must be sorted by At.
	At engine.Cycle
}

// ChurnSpec describes mid-run tenant traffic for NewMulti.
type ChurnSpec struct {
	// QueueCap bounds the admission queue: an arrival finding every slot
	// occupied waits here, and overflows beyond the cap are shed (dropped
	// deterministically, reported with Shed set in their TenantResult).
	QueueCap int
	// Arrivals lists the arriving kernels in arrival-cycle order.
	Arrivals []ChurnArrival
}

// TenantResult summarizes one tenant of a multi-tenant run. Stall counters
// sum the request-to-completion cycles of the tenant's translation
// requests, split by where the translation resolved — the per-tenant
// translation-stall breakdown of the interference experiments.
type TenantResult struct {
	ASID         vm.ASID `json:"asid"`
	Name         string  `json:"name"`
	Cycles       int64   `json:"cycles"` // completion of the tenant's last warp
	InstsIssued  int64   `json:"insts_issued"`
	PageRequests int64   `json:"page_requests"`
	L1TLBHits    int64   `json:"l1_tlb_hits"`
	L2TLBHits    int64   `json:"l2_tlb_hits"`
	Walks        int64   `json:"walks"`
	Faults       int64   `json:"faults"`
	StallL1      int64   `json:"stall_l1"`
	StallL2      int64   `json:"stall_l2"`
	StallWalk    int64   `json:"stall_walk"`
	StallFault   int64   `json:"stall_fault"`
	// StartCycle is the cycle the tenant began executing: 0 for the initial
	// tenants, the admission cycle for churn arrivals. WaitCycles is the
	// time an arrival spent in the admission queue. Shed marks an arrival
	// dropped on queue overflow (all its other counters are zero).
	StartCycle int64 `json:"start_cycle,omitempty"`
	WaitCycles int64 `json:"wait_cycles,omitempty"`
	Shed       bool  `json:"shed,omitempty"`
}

// IPC returns the tenant's instructions per cycle over its own elapsed
// runtime — from its start (admission, for churn arrivals) to the
// completion of its last warp, not the whole cell's runtime. Weighted
// speedup over a churn run depends on this: a tenant admitted late would
// otherwise be charged for cycles it never ran.
func (t TenantResult) IPC() float64 {
	elapsed := t.Cycles - t.StartCycle
	if elapsed <= 0 {
		return 0
	}
	return float64(t.InstsIssued) / float64(elapsed)
}

// L1TLBHitRate returns the tenant's private L1 TLB hit rate.
func (t TenantResult) L1TLBHitRate() float64 {
	if t.PageRequests == 0 {
		return 0
	}
	return float64(t.L1TLBHits) / float64(t.PageRequests)
}

// StallTotal sums the translation-stall breakdown.
func (t TenantResult) StallTotal() int64 {
	return t.StallL1 + t.StallL2 + t.StallWalk + t.StallFault
}

// tenantState is the simulator's per-tenant bookkeeping: the dispatch
// cursor over the tenant's kernel, its private address space, and the
// counters behind TenantResult. Single-tenant runs have exactly one, with
// ASID 0, spanning every SM — the pre-tenancy behaviour.
type tenantState struct {
	asid   vm.ASID
	name   string
	kernel *trace.Kernel
	lines  *trace.LineStream // the kernel's coalesced memory instructions
	as     *vm.AddressSpace
	sms    []int
	policy sched.Policy

	// slot is the machine slot the tenant occupies (its L2 TLB partition
	// index and SM-list index); without churn it equals the ASID. active
	// marks it as currently executing: initial tenants from cycle 0, churn
	// arrivals from admission to departure. Arrival tenants carry their
	// arrival cycle and, once admitted, their start cycle; shed marks an
	// arrival dropped on admission-queue overflow.
	slot       int
	active     bool
	isArrival  bool
	arriveAt   engine.Cycle
	startCycle engine.Cycle
	shed       bool

	nextTB   int
	cursor   int
	tbsDone  int
	lastDone engine.Cycle

	insts    int64
	pageReqs int64
	l1Hits   int64
	l2Hits   int64
	walks    int64
	faults   int64

	stallL1, stallL2, stallWalk, stallFault int64

	// statusBuf backs the TB scheduler's per-SM status vector, sized to the
	// tenant's SM list so dispatch stays allocation-free.
	statusBuf []sched.SMStatus
}

// result materializes the tenant's counters.
func (tn *tenantState) result() TenantResult {
	var wait int64
	if tn.isArrival && !tn.shed {
		wait = int64(tn.startCycle - tn.arriveAt)
	}
	return TenantResult{
		ASID:         tn.asid,
		Name:         tn.name,
		StartCycle:   int64(tn.startCycle),
		WaitCycles:   wait,
		Shed:         tn.shed,
		Cycles:       int64(tn.lastDone),
		InstsIssued:  tn.insts,
		PageRequests: tn.pageReqs,
		L1TLBHits:    tn.l1Hits,
		L2TLBHits:    tn.l2Hits,
		Walks:        tn.walks,
		Faults:       tn.faults,
		StallL1:      tn.stallL1,
		StallL2:      tn.stallL2,
		StallWalk:    tn.stallWalk,
		StallFault:   tn.stallFault,
	}
}

// phaseBarrier returns the tenant's first phase boundary not yet fully
// retired, or its grid size when none remains.
func (tn *tenantState) phaseBarrier() int {
	for _, b := range tn.kernel.PhaseStarts {
		if tn.tbsDone < b {
			return b
		}
	}
	return len(tn.kernel.TBs)
}

// asidKeyShift packs a tenant's ASID into unused high bits of the VPN keys
// of the MSHR/in-flight walk tables, so concurrent same-VPN misses from
// different tenants never merge. Trace VPNs sit far below 2^56 and
// vm.MaxTenants bounds the ASID, so the packed key never collides.
const asidKeyShift = 56

// tenantKey tags a VPN with its tenant for the in-flight tables.
func tenantKey(asid vm.ASID, vpn vm.VPN) vm.VPN {
	return vpn | vm.VPN(asid)<<asidKeyShift
}

// validateTenants checks a NewMulti tenant list against the configuration.
func validateTenants(cfg arch.Config, tenants []Tenant) error {
	if len(tenants) == 0 {
		return errors.New("sim: at least one tenant required")
	}
	if len(tenants) > vm.MaxTenants {
		return fmt.Errorf("sim: %d tenants exceeds the ASID limit of %d", len(tenants), vm.MaxTenants)
	}
	for i, tn := range tenants {
		if tn.Kernel == nil || tn.AS == nil {
			return fmt.Errorf("sim: tenant %d missing kernel or address space", i)
		}
		if tn.AS.PageShift() != cfg.PageShift() {
			return fmt.Errorf("sim: address space page shift %d does not match config %d",
				tn.AS.PageShift(), cfg.PageShift())
		}
		if len(tn.Kernel.TBs) == 0 {
			return fmt.Errorf("sim: kernel %q has no thread blocks", tn.Kernel.Name)
		}
		if err := tn.Kernel.ValidatePhases(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		for _, sm := range tn.SMs {
			if sm < 0 || sm >= cfg.NumSMs {
				return fmt.Errorf("sim: tenant %d assigned to SM %d outside [0,%d)", i, sm, cfg.NumSMs)
			}
		}
	}
	switch {
	case len(tenants) > 1:
		for i, tn := range tenants {
			if len(tn.SMs) == 0 {
				return fmt.Errorf("sim: tenant %d has no SMs assigned", i)
			}
		}
	}
	return nil
}

// validateChurn checks a churn spec against the configuration and the
// initial tenant count.
func validateChurn(cfg arch.Config, nInitial int, spec *ChurnSpec) error {
	if spec == nil {
		return nil
	}
	if nInitial < 2 {
		return errors.New("sim: churn requires at least two initial tenants (they define the slots)")
	}
	if spec.QueueCap < 0 {
		return fmt.Errorf("sim: negative admission queue capacity %d", spec.QueueCap)
	}
	if total := nInitial + len(spec.Arrivals); total > vm.MaxTenants {
		return fmt.Errorf("sim: %d tenants (initial + arrivals) exceeds the ASID limit of %d",
			total, vm.MaxTenants)
	}
	var last engine.Cycle
	for i, a := range spec.Arrivals {
		if a.At <= 0 {
			return fmt.Errorf("sim: arrival %d at cycle %d, must be positive", i, a.At)
		}
		if a.At < last {
			return fmt.Errorf("sim: arrival %d at cycle %d out of order (previous %d)", i, a.At, last)
		}
		last = a.At
		t := a.Tenant
		if t.Kernel == nil || t.AS == nil {
			return fmt.Errorf("sim: arrival %d missing kernel or address space", i)
		}
		if t.AS.PageShift() != cfg.PageShift() {
			return fmt.Errorf("sim: arrival %d address space page shift %d does not match config %d",
				i, t.AS.PageShift(), cfg.PageShift())
		}
		if len(t.Kernel.TBs) == 0 {
			return fmt.Errorf("sim: arrival kernel %q has no thread blocks", t.Kernel.Name)
		}
		if err := t.Kernel.ValidatePhases(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if t.SMs != nil {
			return fmt.Errorf("sim: arrival %d has an explicit SM list; arrivals inherit their slot's", i)
		}
	}
	return nil
}
