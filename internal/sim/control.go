package sim

// Tenant churn (mid-run arrivals and departures with a bounded admission
// queue) and the online partitioning controller that repartitions the
// machine — L2 TLB set ownership and per-slot SM lists — in response.
//
// Determinism contract with the sharded engine: every churn trigger is
// either a global-queue event (arrivals, which truncate epochs so every
// shard is paused at the exact arrival cycle) or a barrier op (departures,
// applied in the canonical op order). Churn-triggered controller decisions
// ignore the sampled counters entirely (see internal/control); only the
// periodic tick — itself a global-queue event, hence epoch-truncating —
// reads counters, at cycles where they are identical for every pass order
// and epoch length.

import (
	"fmt"
	"slices"

	"gputlb/internal/control"
	"gputlb/internal/engine"
	"gputlb/internal/sched"
)

// ctlTID is the trace track for controller decisions and tenant lifecycle
// events, next to the walker pool's.
const ctlTID = walkerTID + 1

// AttachController attaches an online partitioning controller: every
// cfg.Period cycles it samples per-slot translation metrics and may move L2
// TLB sets and SMs between slots; tenant arrivals and departures trigger an
// immediate counter-free rebalance. Requires a multi-tenant simulator; set
// moves additionally require a partitioned L2 TLB (IndexByTB or
// IndexByTBShared) with at least as many sets as slots. Call after NewMulti
// and before Run.
func (s *Simulator) AttachController(cfg control.Config) (*control.Controller, error) {
	if len(s.tenants) == 1 {
		return nil, fmt.Errorf("sim: controller requires a multi-tenant run")
	}
	if s.ctl != nil {
		return nil, fmt.Errorf("sim: controller already attached")
	}
	l2Sets := 0
	if s.l2Partitioned {
		if n := s.l2tlb.Config().Sets(); s.numSlots <= n {
			l2Sets = n
		}
	}
	m := control.Machine{Slots: s.numSlots, NumSMs: s.cfg.NumSMs, L2Sets: l2Sets}
	initial := control.Assignment{SMs: make([][]int, s.numSlots)}
	for i, sms := range s.slotSMs {
		initial.SMs[i] = append([]int(nil), sms...)
	}
	if l2Sets > 0 {
		initial.SetBounds = make([]int, s.numSlots+1)
		for i := range initial.SetBounds {
			initial.SetBounds[i] = i * l2Sets / s.numSlots // the TLB's equal split
		}
	}
	ctl, err := control.New(cfg, m, initial)
	if err != nil {
		return nil, err
	}
	s.ctl = ctl
	s.ctlPeriod = engine.Cycle(ctl.Config().Period)
	s.ctlFn = s.ctlTick
	if l2Sets > 0 {
		s.l2Bounds = initial.SetBounds // adopted: applyAssignment keeps it current
	}
	reg := s.stats.Child("control")
	reg.CounterFunc("decisions", func() int64 { return ctl.Stats().Decisions })
	reg.CounterFunc("set_moves", func() int64 { return ctl.Stats().SetMoves })
	reg.CounterFunc("sm_moves", func() int64 { return ctl.Stats().SMMoves })
	reg.CounterFunc("rebalances", func() int64 { return ctl.Stats().Rebalances })
	return ctl, nil
}

// Controller returns the attached controller (nil without one).
func (s *Simulator) Controller() *control.Controller { return s.ctl }

// ctlTick is the controller's periodic decision point, a global-queue event
// at multiples of the period. It re-arms while thread blocks remain — not
// while the queue is non-empty, which would let the tick and the sampling
// callback keep each other alive forever after the last warp retires.
func (s *Simulator) ctlTick() {
	s.runControl(control.ReasonEpoch)
	if s.tbsDone < s.totalTBs {
		s.queue.Schedule(s.clock+s.ctlPeriod, s.ctlFn)
	}
}

// runControl builds the per-slot sample vector, asks the controller for a
// decision, and applies any assignment change. Counters are only sampled
// for periodic decisions — churn decisions are defined to be counter-free,
// which is what keeps them deterministic mid-epoch.
func (s *Simulator) runControl(reason control.Reason) {
	if s.ctl == nil {
		return
	}
	samples := s.ctlSamples[:0]
	for sl := 0; sl < s.numSlots; sl++ {
		smp := control.Sample{Slot: sl, SMs: len(s.slotSMs[sl])}
		if s.l2Bounds != nil {
			smp.Sets = s.l2Bounds[sl+1] - s.l2Bounds[sl]
		}
		if tn := s.slotOwner[sl]; tn != nil {
			smp.Active = true
			smp.TBsLeft = len(tn.kernel.TBs) - tn.tbsDone
			if reason == control.ReasonEpoch {
				s.sampleTenant(tn, &smp)
			}
		}
		samples = append(samples, smp)
	}
	s.ctlSamples = samples
	a, changed := s.ctl.Decide(int64(s.clock), reason, samples)
	if !changed {
		return
	}
	s.applyAssignment(a)
	if s.tracer.Enabled() {
		d, _ := s.ctl.Last()
		reb := int64(0)
		if d.Rebalanced {
			reb = 1
		}
		s.tracer.Instant(s.tracePID, ctlTID, "ctl_"+reason.String(), "control",
			int64(s.clock), map[string]int64{
				"set_moves": int64(d.SetMoves), "sm_moves": int64(d.SMMoves), "rebalanced": reb,
			})
		vals := make(map[string]int64, 2*s.numSlots)
		for sl := range s.slotSMs {
			vals[fmt.Sprintf("slot%d_sms", sl)] = int64(len(s.slotSMs[sl]))
			if s.l2Bounds != nil {
				vals[fmt.Sprintf("slot%d_sets", sl)] = int64(s.l2Bounds[sl+1] - s.l2Bounds[sl])
			}
		}
		s.tracer.CounterEvent(s.tracePID, "controller", int64(s.clock), vals)
	}
}

// sampleTenant fills a sample's counters from the tenant's own counters
// plus the shard accumulators (phase-1 counters live in the shards until
// the end-of-run fold). Only called at periodic ticks, where every shard is
// paused at the tick cycle, so the sums are barrier-stable.
func (s *Simulator) sampleTenant(tn *tenantState, smp *control.Sample) {
	smp.Insts = tn.insts
	smp.PageReqs = tn.pageReqs
	smp.L1Hits = tn.l1Hits
	smp.L2Hits = tn.l2Hits
	smp.Walks = tn.walks
	smp.Faults = tn.faults
	smp.StallL1 = tn.stallL1
	smp.StallL2 = tn.stallL2
	smp.StallWalk = tn.stallWalk
	smp.StallFault = tn.stallFault
	for _, sh := range s.shards {
		st := &sh.tenants[tn.asid]
		smp.Insts += st.insts
		smp.PageReqs += st.pageReqs
		smp.L1Hits += st.l1Hits
		smp.StallL1 += st.stallL1
		smp.StallWalk += st.stallWalk
	}
}

// applyAssignment installs a controller decision: the L2 TLB's explicit set
// partition and the per-slot SM lists, refreshing each owning tenant's
// dispatch state. Already-placed TBs keep running where they are — the new
// assignment steers future dispatch, like a real TB scheduler would.
func (s *Simulator) applyAssignment(a control.Assignment) {
	if s.l2Bounds != nil && a.SetBounds != nil {
		copy(s.l2Bounds, a.SetBounds)
		s.l2tlb.SetPartition(s.l2Bounds)
		if s.sharded {
			s.applySliceBounds()
		}
	}
	for sl := range s.slotSMs {
		if slices.Equal(s.slotSMs[sl], a.SMs[sl]) {
			continue
		}
		s.slotSMs[sl] = append([]int(nil), a.SMs[sl]...)
		if tn := s.slotOwner[sl]; tn != nil {
			tn.sms = s.slotSMs[sl]
			if len(tn.statusBuf) != len(tn.sms) {
				tn.statusBuf = make([]sched.SMStatus, len(tn.sms))
			}
			tn.cursor = 0
		}
	}
}

// scheduleArrivals schedules every churn arrival as a global-queue event at
// its arrival cycle. Called once at the start of Run.
func (s *Simulator) scheduleArrivals() {
	for _, tn := range s.tenants {
		if !tn.isArrival {
			continue
		}
		tn := tn
		s.queue.Schedule(tn.arriveAt, func() { s.arrive(tn) })
	}
}

// arrive handles a tenant's arrival: admit into a free slot, wait in the
// admission queue, or shed when the queue is full. Sheds are final — the
// tenant's TBs leave the run's workload.
func (s *Simulator) arrive(tn *tenantState) {
	for sl := 0; sl < s.numSlots; sl++ {
		if s.slotOwner[sl] == nil {
			s.admit(tn, sl)
			return
		}
	}
	if len(s.admitQ) < s.queueCap {
		s.admitQ = append(s.admitQ, tn)
		if s.tracer.Enabled() {
			s.tracer.Instant(s.tracePID, ctlTID, "tenant_queued", "churn",
				int64(s.clock), map[string]int64{"asid": int64(tn.asid)})
		}
		return
	}
	tn.shed = true
	s.totalTBs -= len(tn.kernel.TBs)
	if s.tracer.Enabled() {
		s.tracer.Instant(s.tracePID, ctlTID, "tenant_shed", "churn",
			int64(s.clock), map[string]int64{"asid": int64(tn.asid)})
	}
}

// admit places an arrived tenant into a free slot, triggers the
// controller's arrival rebalance, and arms dispatch. The tenant inherits
// the slot's (possibly controller-resized) SM list.
func (s *Simulator) admit(tn *tenantState, sl int) {
	s.slotOwner[sl] = tn
	tn.slot = sl
	tn.active = true
	tn.startCycle = s.clock
	s.runControl(control.ReasonArrival)
	tn.sms = s.slotSMs[sl]
	if len(tn.statusBuf) != len(tn.sms) {
		tn.statusBuf = make([]sched.SMStatus, len(tn.sms))
	}
	if s.tracer.Enabled() {
		s.tracer.Instant(s.tracePID, ctlTID, "tenant_admit", "churn",
			int64(s.clock), map[string]int64{"asid": int64(tn.asid), "slot": int64(sl)})
	}
	s.scheduleDispatch()
}

// depart retires a tenant whose last TB finished: its slot frees, the head
// of the admission queue (if any) is admitted into it in the same cycle,
// and otherwise the controller reclaims the slot's resources for the
// survivors. In-flight state for the dead ASID needs no cleanup: TLB and
// MSHR entries are ASID-tagged, so they simply age out.
func (s *Simulator) depart(tn *tenantState) {
	if len(s.tenants) == 1 || !tn.active {
		return
	}
	tn.active = false
	sl := tn.slot
	s.slotOwner[sl] = nil
	if s.tracer.Enabled() {
		s.tracer.Instant(s.tracePID, ctlTID, "tenant_depart", "churn",
			int64(s.clock), map[string]int64{"asid": int64(tn.asid), "slot": int64(sl)})
	}
	if len(s.admitQ) > 0 {
		next := s.admitQ[0]
		copy(s.admitQ, s.admitQ[1:])
		s.admitQ = s.admitQ[:len(s.admitQ)-1]
		s.admit(next, sl)
		return
	}
	s.runControl(control.ReasonDeparture)
}
