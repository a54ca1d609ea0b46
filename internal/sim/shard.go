package sim

// Sharded (intra-cell parallel) execution engine.
//
// The serial engine (Run with cell parallelism 1) interleaves every SM's
// events on one queue in (cycle, insertion) order. The sharded engine gives
// each SM its own event queue and lets all of them run ahead independently
// up to a deterministic epoch barrier; everything an SM does against shared
// hardware — the L2 TLB, the page-walk cache, the walker pool, the
// crossbar, the L2 cache and DRAM — is buffered as a per-shard op and
// applied at the barrier in a canonical order that depends only on
// (request cycle, SM index, per-shard sequence). The barrier is the
// address-sliced one (slice.go): the shared hardware splits into K address
// slices (K = 1 is one slice holding all of it), each replaying its own
// part of the canonical op stream. Worker goroutines only decide *which*
// shard or slice a core advances, never the order anything is applied in,
// so the results are bit-identical at every worker count.
//
// The epoch length is bounded by the model's lookahead: an SM can only
// observe shared state through a round trip over the interconnect, which
// costs at least 2*InterconnectLatency cycles, so running a shard up to
// 2*InterconnectLatency cycles ahead can never let it see a shared reply
// "from the future". Epochs are additionally cut at TB-dispatch period
// boundaries and at pending global events (dispatch, sampling), which keeps
// the global event stream on exact cycles with every shard paused — and
// makes the simulated outcome independent of the epoch length itself.
//
// The sharded engine is deliberately a *different* serialization of the
// same hardware model than the serial engine: shared-resource requests are
// ordered by (cycle, SM index) instead of by global insertion order, so its
// stats differ slightly from the serial engine's golden values. Each engine
// is deterministic in itself; cell parallelism 1 keeps the serial engine
// byte-for-byte identical to the committed goldens.

import (
	"fmt"
	"time"

	"gputlb/internal/cache"
	"gputlb/internal/engine"
	"gputlb/internal/stats"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// pendPage is one coalesced page of a deferred memory instruction: either
// resolved locally (L1 TLB hit or in-flight merge) or pending the shared
// translation tail at the next barrier.
type pendPage struct {
	vpn     vm.VPN
	ppn     vm.PPN
	done    engine.Cycle
	hit     bool         // resolved by an L1 TLB hit (VIPT: data access overlaps)
	pending bool         // needs translateMissSliced at the barrier
	fill    bool         // the slice pass resolved it; the SM pass must fill the L1
	t1      engine.Cycle // cycle the L1 lookup resolved (pending pages)
}

// pendLine is one data line that missed the SM's L1 cache: its shared tail
// (crossbar, L2 slice, DRAM) runs at the next barrier from cycle start.
type pendLine struct {
	phys  cache.LineAddr
	start engine.Cycle
	done  engine.Cycle // completion resolved by the owning slice pass
}

// pendingInst is one memory instruction whose completion depends on shared
// resources; the issuing shard parks the warp and the barrier finishes the
// instruction. It moves through up to two stages: stage 0 resolves pending
// translations at a barrier and resumes the data-line loop as a shard event
// at the resolved cycle; stage 1 runs the L1-missing lines' shared tails at
// a barrier. Instances are pooled per shard.
type pendingInst struct {
	ws        *warpState
	t         engine.Cycle // op cycle (issue, or the stage-1 resume cycle)
	stage     int
	retire    bool             // the warp's last instruction: retire instead of wake
	src       trace.LineCursor // at the instruction, for the stage-0 resume
	pages     []pendPage
	lines     []pendLine
	localDone engine.Cycle // completion floor from locally-resolved work
	insIdx    uint64       // production index reserved for the stage-0 resume
}

// op kinds for the per-epoch shared-op log.
const (
	opMem      = iota // advance a deferred memory instruction one stage
	opTBFinish        // account a completed thread block
	opEvict           // write an L1 TLB victim back to the L2 TLB
)

// Same-cycle tie-break classes for shard-queue events. A shard queue pops
// same-cycle events by (logical production cycle, class, production index)
// rather than raw insertion order: a barrier inserts events for ops from
// many cycles at once, so insertion order alone would depend on where the
// epoch boundaries fall. The class order mirrors the finest (one-cycle
// epoch) serialization: at a given cycle, global events run first, then the
// shard's own events, then that cycle's barrier ops.
const (
	schedClsGlobal  uint64 = iota // global-queue event (dispatch, sampling)
	schedClsPhase                 // produced by a phase-1 shard event
	schedClsBarrier               // produced applying a buffered op
)

// shardPri packs the epoch-invariant same-cycle key for SchedulePri:
// (logical production cycle, class, production index within that cycle).
// The index orders phase-class events by production position even when one
// of them is inserted later, by a barrier, on behalf of that position (a
// stage-0 resume carries the index its issue reserved).
func shardPri(lt engine.Cycle, cls uint64, idx uint64) uint64 {
	if idx > 0xFFFF {
		idx = 0xFFFF
	}
	return uint64(lt)<<19 | cls<<16 | idx
}

// sharedOp is one buffered shared-resource interaction. Per-shard logs are
// naturally sorted by (t, seq); the barrier merges them across shards.
type sharedOp struct {
	t    engine.Cycle
	seq  int64
	kind int
	pi   *pendingInst // opMem
	ws   *warpState   // opTBFinish
	asid vm.ASID      // opEvict: the victim entry
	vpn  vm.VPN
	ppn  vm.PPN
}

// shardTraceEv is one buffered phase-1 trace event (tracing only; the hot
// path never builds these when the tracer is off).
type shardTraceEv struct {
	complete bool // TB-complete event; otherwise an l1tlb_miss instant
	tid      int
	tb       int
	vpn      int64
	ts, dur  int64
}

// shardTenant accumulates the per-tenant counters a shard touches during
// phase 1; folded into the tenant at the end of the run.
type shardTenant struct {
	insts     int64
	pageReqs  int64
	l1Hits    int64
	stallL1   int64
	stallWalk int64
	lastDone  engine.Cycle
}

// shardCtx is one SM's private execution context: its event queue, clock,
// shared-op log, and every counter phase 1 is allowed to touch.
type shardCtx struct {
	sm    *smState
	queue engine.Queue
	clock engine.Cycle
	seq   int64
	ops   []sharedOp

	// phaseIns counts shard-queue insertions produced at the current clock
	// cycle; it is the production index in shardPri keys and resets when the
	// clock advances. nextIns reserves the next index.
	phaseIns uint64

	piFree []*pendingInst

	// Folded into the simulator's counters after the run (sums and maxes
	// are commutative, so the fold is worker-count independent).
	insts    int64
	lineReqs int64
	pageReqs int64
	transLat *stats.Histogram
	lastDone engine.Cycle
	tenants  []shardTenant

	localEvents int64
	smPassOps   int64 // ops this shard's barrier SM pass advanced
	traceBuf    []shardTraceEv
}

// nextIns reserves the next production index at the shard's current cycle.
func (sh *shardCtx) nextIns() uint64 {
	i := sh.phaseIns
	sh.phaseIns++
	return i
}

// getPI takes a pooled pendingInst (or grows the pool).
func (sh *shardCtx) getPI() *pendingInst {
	if n := len(sh.piFree); n > 0 {
		pi := sh.piFree[n-1]
		sh.piFree = sh.piFree[:n-1]
		return pi
	}
	return &pendingInst{pages: make([]pendPage, 0, 48), lines: make([]pendLine, 0, 48)}
}

// putPI returns a pendingInst to the pool.
func (sh *shardCtx) putPI(pi *pendingInst) {
	pi.ws = nil
	pi.src = trace.LineCursor{}
	pi.pages = pi.pages[:0]
	pi.lines = pi.lines[:0]
	pi.stage = 0
	pi.localDone = 0
	pi.insIdx = 0
	sh.piFree = append(sh.piFree, pi)
}

// SetCellParallel selects the intra-cell engine: 1 (or less) keeps the
// serial engine, byte-identical to the golden stats; n >= 2 runs the
// sharded epoch-barrier engine with up to n worker goroutines. The sharded
// engine's results are bit-identical across all n >= 2 (and across
// GOMAXPROCS); they differ from the serial engine only in how same-epoch
// shared-resource requests are ordered. Call before Run.
func (s *Simulator) SetCellParallel(n int) {
	if n < 1 {
		n = 1
	}
	s.cellParallel = n
}

// SetEpochLength overrides the sharded engine's epoch length in cycles
// (0 restores the default). Lengths above 2*InterconnectLatency are capped
// there: that bound is the model's lookahead, and respecting it is what
// makes the simulated outcome invariant under the epoch length. Call
// before Run.
func (s *Simulator) SetEpochLength(c engine.Cycle) {
	s.epochOverride = c
}

// epochLength returns the effective epoch length.
func (s *Simulator) epochLength() engine.Cycle {
	max := engine.Cycle(2 * s.cfg.InterconnectLatency)
	if max < 1 {
		max = 1
	}
	e := s.epochOverride
	if e <= 0 || e > max {
		e = max
	}
	return e
}

// ShardProfile reports the sharded run's phase breakdown: epochs executed,
// events processed inside shards (the parallel section), global events
// popped at barriers, and the wall-clock seconds spent in each. The counts
// are deterministic; the times are not, and none of this is in the stats
// registry so snapshots stay comparable across runs.
type ShardProfile struct {
	Epochs       int64
	LocalEvents  int64
	BarrierOps   int64 // always zero: every barrier op is a slice-pass, SM-pass or serial-tail op below
	GlobalEvents int64
	// Phase1Seconds is the wall time inside shards; BarrierSeconds the wall
	// time of the barriers, slice and SM passes included.
	Phase1Seconds  float64
	BarrierSeconds float64

	// Ops applied inside the concurrent per-slice passes (per slice in
	// SliceOps), ops advanced by the concurrent per-SM pass, and the serial
	// tail's cross-slice ops (TB completions).
	SlicedOps        int64
	SMPassOps        int64
	SerialOps        int64
	SliceOps         []int64
	SlicePassSeconds float64
	SMPassSeconds    float64
}

// Profile returns the last sharded run's ShardProfile (zero value for
// serial runs).
func (s *Simulator) Profile() ShardProfile {
	p := s.profile
	for _, sh := range s.shards {
		p.LocalEvents += sh.localEvents
		p.SMPassOps += sh.smPassOps
	}
	if len(s.slices) > 0 {
		p.SliceOps = make([]int64, len(s.slices))
		for i, sc := range s.slices {
			p.SliceOps[i] = sc.ops
			p.SlicedOps += sc.ops
		}
	}
	return p
}

// runSharded executes the sharded engine with up to `workers` worker
// goroutines and returns the run's results.
func (s *Simulator) runSharded(workers int) Result {
	s.sharded = true
	s.shards = make([]*shardCtx, len(s.sms))
	for i, sm := range s.sms {
		sm := sm
		sh := &shardCtx{
			sm:       sm,
			transLat: stats.NewHistogram(len(Result{}.TranslationLatency)),
			tenants:  make([]shardTenant, len(s.tenants)),
		}
		sm.shard = sh
		sm.tickFn = func() { s.shardTick(sm) }
		s.shards[i] = sh
	}
	s.buildSlices(workers)

	runner := engine.NewEpochRunner(len(s.shards), workers, s.shardStep)
	defer runner.Close()
	if s.slicePool != nil {
		defer s.slicePool.Close()
	}

	s.scheduleArrivals()
	s.dispatch()
	if s.cfg.SampleInterval > 0 {
		s.queue.Schedule(engine.Cycle(s.cfg.SampleInterval), s.sampleFn)
	}
	if s.ctl != nil {
		s.queue.Schedule(s.ctlPeriod, s.ctlFn)
	}

	epoch := s.epochLength()
	period := engine.Cycle(s.cfg.TBDispatchPeriod)
	for {
		// Earliest pending work across every shard and the global queue.
		var earliest engine.Cycle
		pending := false
		for _, sh := range s.shards {
			if sh.queue.Len() > 0 && (!pending || sh.queue.NextCycle() < earliest) {
				earliest = sh.queue.NextCycle()
				pending = true
			}
		}
		if s.queue.Len() > 0 && (!pending || s.queue.NextCycle() < earliest) {
			earliest = s.queue.NextCycle()
			pending = true
		}
		if !pending {
			break
		}
		// The epoch ends at the lookahead bound, but never crosses a TB
		// dispatch boundary (barrier ops may arm a dispatch at the next
		// period multiple, which must still be in this epoch's future) and
		// never passes a pending global event.
		limit := earliest + epoch
		if b := (earliest/period + 1) * period; b < limit {
			limit = b
		}
		if s.queue.Len() > 0 && s.queue.NextCycle() < limit {
			limit = s.queue.NextCycle()
		}
		t0 := time.Now()
		runner.RunEpoch(limit)
		t1 := time.Now()
		s.barrier(limit)
		t2 := time.Now()
		s.profile.Epochs++
		s.profile.Phase1Seconds += t1.Sub(t0).Seconds()
		s.profile.BarrierSeconds += t2.Sub(t1).Seconds()
	}
	if s.tbsDone != s.totalTBs {
		panic(fmt.Sprintf("sim: deadlock — %d of %d TBs finished", s.tbsDone, s.totalTBs))
	}
	s.foldShards()
	s.foldSlices()
	return s.result()
}

// shardStep advances one shard through every event strictly before limit.
// Runs on a worker goroutine; must only touch the shard's own state.
func (s *Simulator) shardStep(i int, limit engine.Cycle) {
	sh := s.shards[i]
	for sh.queue.Len() > 0 && sh.queue.NextCycle() < limit {
		ev := sh.queue.Pop()
		if ev.At < sh.clock {
			pastEvent(ev.At, sh.clock)
		}
		if ev.At != sh.clock {
			sh.clock = ev.At
			sh.phaseIns = 0
		}
		sh.localEvents++
		ev.Fn()
	}
}

// flushShardTraces drains the shards' buffered phase-1 trace events into
// the tracer, in shard order, at the start of every barrier.
func (s *Simulator) flushShardTraces() {
	if !s.tracer.Enabled() {
		return
	}
	for _, sh := range s.shards {
		for i := range sh.traceBuf {
			ev := &sh.traceBuf[i]
			if ev.complete {
				s.tracer.Complete(s.tracePID, ev.tid, fmt.Sprintf("TB %d", ev.tb), "tb",
					ev.ts, ev.dur, nil)
			} else {
				s.tracer.Instant(s.tracePID, ev.tid, "l1tlb_miss", "tlb",
					ev.ts, map[string]int64{"vpn": ev.vpn})
			}
		}
		sh.traceBuf = sh.traceBuf[:0]
	}
}

// mergeEntry is one shard's head op inside the barrier's k-way merge heap,
// ordered by (t, shard index) — exactly the canonical apply order, since ops
// within one shard are already in (t, seq) order.
type mergeEntry struct {
	t     engine.Cycle
	shard int32
}

func mergeLess(a, b mergeEntry) bool {
	return a.t < b.t || (a.t == b.t && a.shard < b.shard)
}

// mergePush appends e and sifts it up.
func mergePush(h []mergeEntry, e mergeEntry) []mergeEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !mergeLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// mergeDown sifts the root down.
func mergeDown(h []mergeEntry) {
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && mergeLess(h[r], h[l]) {
			l = r
		}
		if !mergeLess(h[l], h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// mergeFix replaces the root's key with the shard's next op time.
func mergeFix(h []mergeEntry, t engine.Cycle) []mergeEntry {
	h[0].t = t
	mergeDown(h)
	return h
}

// mergePop removes the root (the shard ran out of ops).
func mergePop(h []mergeEntry) []mergeEntry {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	mergeDown(h)
	return h
}

// foldShards folds every shard's private counters into the simulator's.
// Sums and maxes commute, so the result is independent of how shards were
// scheduled onto workers.
func (s *Simulator) foldShards() {
	for _, sh := range s.shards {
		s.instsIssued.Add(sh.insts)
		s.lineRequests.Add(sh.lineReqs)
		s.pageRequests.Add(sh.pageReqs)
		if err := s.transLatency.Merge(sh.transLat); err != nil {
			panic("sim: shard histogram shape mismatch: " + err.Error())
		}
		if sh.lastDone > s.lastDone {
			s.lastDone = sh.lastDone
		}
		for ti := range s.tenants {
			tn, st := s.tenants[ti], &sh.tenants[ti]
			tn.insts += st.insts
			tn.pageReqs += st.pageReqs
			tn.l1Hits += st.l1Hits
			tn.stallL1 += st.stallL1
			tn.stallWalk += st.stallWalk
			if st.lastDone > tn.lastDone {
				tn.lastDone = st.lastDone
			}
		}
	}
}

// shardArmTick schedules an issue tick on the SM's own queue (phase-1
// counterpart of armTick).
func (s *Simulator) shardArmTick(sm *smState, at engine.Cycle) {
	if sm.tickPending {
		return
	}
	if at < sm.nextIssueAt {
		at = sm.nextIssueAt
	}
	if at <= sm.shard.clock {
		at = sm.shard.clock + 1
	}
	sm.tickPending = true
	sm.shard.queue.SchedulePri(at, shardPri(sm.shard.clock, schedClsPhase, sm.shard.nextIns()), sm.tickFn)
}

// shardTick is one SM issue cycle on the sharded engine: identical policy
// to tick, but clocked by the shard.
func (s *Simulator) shardTick(sm *smState) {
	sh := sm.shard
	sm.tickPending = false
	sm.nextIssueAt = sh.clock + 1
	for n := 0; n < s.cfg.IssueWidth && len(sm.ready) > 0; n++ {
		ws := s.pickWarp(sm)
		s.shardIssue(ws)
	}
	if len(sm.ready) > 0 {
		s.shardArmTick(sm, sh.clock+1)
	}
}

// shardIssue executes one instruction of ws at the shard's current cycle.
// Instructions that stay inside the SM complete locally; one that needs
// shared hardware parks the warp behind a buffered op for the barrier.
func (s *Simulator) shardIssue(ws *warpState) {
	sh := ws.sm.shard
	in := ws.insts[ws.pc]
	ws.pc++
	sh.insts++
	sh.tenants[ws.tn.asid].insts++

	var done engine.Cycle
	if in.IsMem() {
		var deferred bool
		done, deferred = s.shardExecuteMem(ws)
		if deferred {
			return // the barrier wakes or retires the warp
		}
	} else {
		c := in.Compute
		if c < 1 {
			c = 1
		}
		done = sh.clock + engine.Cycle(c)
	}

	if ws.pc >= len(ws.insts) {
		if done > sh.lastDone {
			sh.lastDone = done
		}
		if done > sh.tenants[ws.tn.asid].lastDone {
			sh.tenants[ws.tn.asid].lastDone = done
		}
		sh.queue.SchedulePri(done, shardPri(sh.clock, schedClsPhase, sh.nextIns()), ws.retire)
		return
	}
	sh.queue.SchedulePri(done, shardPri(sh.clock, schedClsPhase, sh.nextIns()), ws.wake)
}

// shardExecuteMem runs one coalesced memory instruction as far as the SM's
// private hardware allows, without touching any shared structure. When every
// page resolves locally, the data lines are probed against the SM's L1 cache
// in shard event order: all hits completes the instruction locally; any miss
// buffers a stage-1 op carrying the missed lines' shared tails. When any
// page is pending, no line is probed — the instruction becomes a stage-0 op
// and its line loop resumes as a shard event once the barrier resolves the
// translations. Deferral returns (0, true).
func (s *Simulator) shardExecuteMem(ws *warpState) (engine.Cycle, bool) {
	sm, slot, tn := ws.sm, ws.slot, ws.tn
	sh := sm.shard
	st := &sh.tenants[tn.asid]

	c := &sm.coal
	at := ws.lines
	ws.lines.Next(c, s.pageShift)
	pages := c.Pages
	sh.pageReqs += int64(len(pages))
	st.pageReqs += int64(len(pages))

	pend := sm.pendBuf[:0]
	anyPending := false
	allHit := true
	for _, vpn := range pages {
		pp := s.shardTranslate(tn, sm, slot, vpn)
		if pp.pending {
			anyPending = true
		} else {
			sh.transLat.Observe(int64(pp.done - sh.clock))
		}
		if !pp.hit {
			allHit = false
		}
		pend = append(pend, pp)
	}
	sm.pendBuf = pend

	// Any page that was not a clean L1 TLB hit parks the instruction: its
	// data-line loop replays at the cycle the last translation lands
	// (shardResume). Whether the non-hit resolved locally (an in-flight
	// merge whose fill is already visible) or needs the barrier (a
	// placeholder merge or a fresh miss) depends on where the epoch
	// boundaries fall, so the two cases must drive the *same* replay — the
	// only difference is who schedules the resume event, and the priority
	// key pins both to the issue cycle.
	if !allHit {
		pi := sh.getPI()
		pi.ws = ws
		pi.t = sh.clock
		pi.stage = 0
		pi.retire = ws.pc >= len(ws.insts)
		pi.src = at
		pi.insIdx = sh.nextIns()
		pi.pages = append(pi.pages, pend...)
		ws.pi = pi
		if anyPending {
			sh.ops = append(sh.ops, sharedOp{t: sh.clock, seq: sh.seq, kind: opMem, pi: pi})
			sh.seq++
			return 0, true
		}
		resumeAt := sh.clock + 1
		for i := range pi.pages {
			if pi.pages[i].done > resumeAt {
				resumeAt = pi.pages[i].done
			}
		}
		sh.queue.SchedulePri(resumeAt, shardPri(sh.clock, schedClsPhase, pi.insIdx), ws.resume)
		return 0, true
	}

	sh.lineReqs += int64(len(c.Lines))
	linesPerPage := s.pageShift - s.lineShift
	instDone := sh.clock + 1
	for _, pp := range pend {
		if pp.done > instDone {
			instDone = pp.done
		}
	}
	var pi *pendingInst
	for i, line := range c.Lines {
		pd := pend[c.LinePage[i]]
		phys := cache.LineAddr(uint64(pd.ppn)<<linesPerPage | uint64(line)&(1<<linesPerPage-1))
		// VIPT: every page hit the L1 TLB, so every line's data access
		// starts at issue.
		start := sh.clock
		if sm.l1cache.Access(phys) {
			done := start + engine.Cycle(s.cfg.L1Cache.HitLatency)
			if done > instDone {
				instDone = done
			}
			continue
		}
		if pi == nil {
			pi = sh.getPI()
		}
		pi.lines = append(pi.lines, pendLine{phys: phys, start: start})
	}
	if pi == nil {
		return instDone, false
	}
	pi.ws = ws
	pi.t = sh.clock
	pi.stage = 1
	pi.retire = ws.pc >= len(ws.insts)
	pi.localDone = instDone
	ws.pi = pi
	sh.ops = append(sh.ops, sharedOp{t: sh.clock, seq: sh.seq, kind: opMem, pi: pi})
	sh.seq++
	return 0, true
}

// shardResume is the deferred data-line loop of a stage-0 instruction,
// running as a shard event at the cycle its last translation resolved. The
// memory stage replays after the fill: every data access starts here, at
// the shard's current cycle. Lines hitting the L1 cache complete locally;
// misses promote the instruction to a stage-1 op.
func (s *Simulator) shardResume(ws *warpState) {
	sm := ws.sm
	sh := sm.shard
	pi := ws.pi

	// pi.pages holds the translations in page order, so the coalescer's
	// line-to-page indices address it directly.
	c := &sm.coal
	pi.src.Next(c, s.pageShift)
	sh.lineReqs += int64(len(c.Lines))
	linesPerPage := s.pageShift - s.lineShift
	instDone := sh.clock + 1
	for i, line := range c.Lines {
		pd := pi.pages[c.LinePage[i]]
		phys := cache.LineAddr(uint64(pd.ppn)<<linesPerPage | uint64(line)&(1<<linesPerPage-1))
		if sm.l1cache.Access(phys) {
			done := sh.clock + engine.Cycle(s.cfg.L1Cache.HitLatency)
			if done > instDone {
				instDone = done
			}
			continue
		}
		pi.lines = append(pi.lines, pendLine{phys: phys, start: sh.clock})
	}
	if len(pi.lines) == 0 {
		retire := pi.retire
		ws.pi = nil
		sh.putPI(pi)
		if retire {
			if instDone > sh.lastDone {
				sh.lastDone = instDone
			}
			st := &sh.tenants[ws.tn.asid]
			if instDone > st.lastDone {
				st.lastDone = instDone
			}
			sh.queue.SchedulePri(instDone, shardPri(sh.clock, schedClsPhase, sh.nextIns()), ws.retire)
			return
		}
		sh.queue.SchedulePri(instDone, shardPri(sh.clock, schedClsPhase, sh.nextIns()), ws.wake)
		return
	}
	pi.t = sh.clock
	pi.stage = 1
	pi.localDone = instDone
	sh.ops = append(sh.ops, sharedOp{t: sh.clock, seq: sh.seq, kind: opMem, pi: pi})
	sh.seq++
}

// shardTranslate is the SM-local prefix of a translation: the L1 TLB
// lookup, the scheduler's residency counters, and the in-flight merge
// window. Anything past the L1 — the L2 TLB, walkers, interconnect — is
// left pending for the barrier.
//
// A miss installs a placeholder entry (sentinel PPN) in the L1 TLB at miss
// time; the barrier's fill later rewrites its payload without touching its
// age. This makes every later lookup's hit/miss answer — and therefore the
// whole simulation — independent of which epoch the fill lands in: the
// entry's presence is decided here, in shard event order.
//
// Any L1 hit, real or placeholder, first consults the SM's in-flight table
// (the MSHR bank owning the VPN): while the page's translation is still on
// its way back, the lookup merges with it here, as the serial engine's
// MSHR merge would. A real entry can be in flight because the barrier
// rewrites the placeholder long before the walk's return cycle. A
// placeholder can be in flight because an MSHR merge never fills, so under
// the partitioned L1 TLB one slot's placeholder can outlive its page's
// fill; deferring such a hit would merge it at the barrier with a return
// cycle that may already lie behind the shard's clock. Only a placeholder
// with nothing in flight defers, as does a miss whose placeholder was
// evicted within the epoch (the bank's pendingMiss set).
func (s *Simulator) shardTranslate(tn *tenantState, sm *smState, slot int, vpn vm.VPN) pendPage {
	sh := sm.shard
	st := &sh.tenants[tn.asid]
	asid := tn.asid
	ppn, hit, probed := sm.l1tlb.LookupA(asid, slot, vpn)
	cost := probed*s.cfg.L1TLB.LookupLatency + s.l1Surcharge
	sm.schedTotal++
	if hit {
		sm.schedHits++
	}
	if sm.schedTotal >= 4096 {
		sm.schedTotal >>= 1
		sm.schedHits >>= 1
	}
	t1 := sh.clock + engine.Cycle(cost)
	key := tenantKey(asid, vpn)
	// The MSHRs are banked per (SM, slice): the owning slice pass writes
	// only its bank, and the table is only written at barriers, so phase-1
	// reads stay race-free.
	bk := &sm.slMSHR[s.vpnSlice(vpn)]
	inf, inFlight := bk.inflight.get(key)
	inFlight = inFlight && inf.done > sh.clock
	if hit && !inFlight && ppn < pendingThreshold {
		st.l1Hits++
		st.stallL1 += int64(t1 - sh.clock)
		return pendPage{vpn: vpn, ppn: ppn, done: t1, hit: true}
	}
	if s.tracer.Enabled() {
		sh.traceBuf = append(sh.traceBuf, shardTraceEv{
			tid: sm.id, vpn: int64(vpn), ts: int64(sh.clock),
		})
	}
	if inFlight {
		if t1 > inf.done {
			st.stallWalk += int64(t1 - sh.clock)
			return pendPage{vpn: vpn, ppn: inf.ppn, done: t1}
		}
		st.stallWalk += int64(inf.done - sh.clock)
		return pendPage{vpn: vpn, ppn: inf.ppn, done: inf.done}
	}
	if hit {
		// Placeholder with nothing in flight: this SM's own miss is on its
		// way to the barrier (merge with it there), or a merge left the
		// placeholder unfilled and the barrier resolves it afresh.
		return pendPage{vpn: vpn, pending: true, t1: t1}
	}
	if _, ok := bk.pendingMiss[key]; ok {
		// The placeholder for an earlier same-epoch miss was evicted;
		// still merge at the barrier rather than walking twice.
		return pendPage{vpn: vpn, pending: true, t1: t1}
	}
	sm.l1tlb.InsertA(asid, slot, vpn, pendingBase) // victim write-back buffers an opEvict
	bk.pendingMiss[key] = struct{}{}
	return pendPage{vpn: vpn, pending: true, t1: t1}
}

// shardRetireWarp accounts a finished warp inside its shard; the shared
// part of a completed TB (global TB counters, L2 TLB partition release,
// dispatch) becomes a buffered op for the barrier.
func (s *Simulator) shardRetireWarp(ws *warpState) {
	sm := ws.sm
	sh := sm.shard
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
		sh.traceBuf = append(sh.traceBuf, shardTraceEv{
			complete: true, tid: sm.id, tb: sl.tbIndex,
			ts: int64(sl.dispatchedAt), dur: int64(sh.clock - sl.dispatchedAt),
		})
	}
	sm.l1tlb.OnTBFinish(ws.slot)
	sh.ops = append(sh.ops, sharedOp{t: sh.clock, seq: sh.seq, kind: opTBFinish, ws: ws})
	sh.seq++
}
