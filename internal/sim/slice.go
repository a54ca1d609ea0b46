package sim

// The sharded engine's barrier (SetCellParallel >= 2; SetL2Slices picks K).
//
// The barrier partitions the shared hardware into K independent address
// slices — L2 TLB sets, L2 cache sets, page-walk resources, and DRAM
// channels — where a slice is a pure function of the address: slice(vpn)
// for translations, partition mod K for data lines. It runs as one slice
// pass over the canonical op stream, handing each op part to the slice that
// owns it, then a per-SM pass that applies L1 fills and wakes warps, then a
// short serial tail for the few cross-slice ops (TB completions, dispatch,
// controller ticks). K = 1 is one slice owning all of the shared hardware.
//
// Determinism: each slice sees exactly the ops touching it, in the
// canonical (cycle, SM index, sequence) order, and acts on them against
// structures only that slice ever touches. The per-slice state evolution is
// therefore a pure function of the canonical op stream — the same whether
// the slices interleave in one pass or run one after another in any order,
// and wherever epoch boundaries fall. Tenant-completing TB finishes are
// "fences": they repartition the sub-TLBs (controller rebalance on
// departure), so the epoch's op stream is segmented at each fence and the
// fence applies serially between segments, at its exact canonical position.
//
// Each K is its own legal serialization of the same hardware model:
// per-slice sub-TLBs/sub-caches index Entries/K structures by compacted VPN,
// translation traffic targets the slice's own memory partitions, and
// request/reply NoC rings are split per direction (noc.Sliced). Results are
// compared within one K, never across two.

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"gputlb/internal/arch"
	"gputlb/internal/cache"
	"gputlb/internal/engine"
	"gputlb/internal/noc"
	"gputlb/internal/stats"
	"gputlb/internal/tlb"
	"gputlb/internal/vm"
)

// sliceMSHR is one SM's translation-MSHR bank for one address slice: the
// SM's MSHR pool splits into K banks so each slice writes only its own
// bank's merge window. Phase 1 (shard events) reads the bank owning the
// VPN; only the owning slice writes it, in the slice pass. pendingMiss
// tracks pages the SM deferred to the barrier (keyed like the inflight
// table), so a re-miss whose placeholder was evicted within the epoch still
// merges instead of double-walking.
type sliceMSHR struct {
	inflight    *inflightTable
	handlers    []engine.Cycle
	pendingMiss map[vm.VPN]struct{}
}

// sliceTenant accumulates the per-tenant counters one slice touches;
// folded into the tenant at the end of every epoch (before global events
// sample them), so the controller sees barrier-stable sums.
type sliceTenant struct {
	l2Hits     int64
	walks      int64
	faults     int64
	stallL2    int64
	stallWalk  int64
	stallFault int64
}

// Buffered slice-pass trace event kinds.
const (
	sliceTrWalk = iota
	sliceTrFill
	sliceTrEvict
)

// sliceTraceEv is one buffered trace event produced inside a slice pass
// (the tracer is insertion-ordered; buffering per slice and flushing in
// slice order keeps traces identical for every pass order).
type sliceTraceEv struct {
	kind  int
	sm    int
	vpn   int64
	ts    int64
	dur   int64
	fault int64
	inUse int64
	src   string
}

// sliceCtx is one address slice's private shared-hardware context: the
// structures its op parts may touch, its epoch-delta counters, and its
// trace scratch. Nothing here is ever accessed for another slice's part.
type sliceCtx struct {
	idx     int
	l2tlb   *tlb.TLB
	l2cache *cache.Cache
	pwc     *tlb.TLB

	l2Inflight  *inflightTable
	walkerMeter noc.Meter
	l2tlbMeters []noc.Meter
	walkers     int
	parts       []int // memory partitions owned by this slice (p mod K == idx)

	// Epoch-delta counters, folded into the simulator's registered counters
	// at the end of every epoch and zeroed.
	walks   int64
	faults  int64
	pwcHits int64
	tenants []sliceTenant

	transLat *stats.Histogram
	ops      int64

	// tbfin shadows each tenant's cumulative TB-finish count: every slice
	// acts on every opTBFinish at its canonical position, so the slice's
	// sub-TLB releases a finished tenant's partition sharing state exactly
	// there, ahead of the serial tail that counts the finish.
	tbfin []int

	// opStamp is the slice pass's op stamp of the last op this slice acted
	// on (counted once in ops however many parts it applied); traceBuf
	// buffers its trace events.
	opStamp  int64
	traceBuf []sliceTraceEv
	walkEnds []engine.Cycle
	walkTID  int
	ctrName  string
}

// finRef locates one opTBFinish in a shard's op log, in canonical
// (t, shard, idx) order; fence marks a tenant-completing finish.
type finRef struct {
	t     engine.Cycle
	shard int32
	idx   int32
	fence bool
}

// SetL2Slices requests K independent address slices for the sharded
// engine's barrier (the -l2-slices flag). Effective only with
// SetCellParallel(n >= 2); the count is clamped to the largest power of two
// the geometry supports (L2 TLB sets, L2 cache sets, and memory partitions
// must all split). 1 (or less) is one slice, byte-identical to SetL2Slices
// never having been called. Call before Run.
func (s *Simulator) SetL2Slices(k int) {
	s.l2Slices = max(k, 1)
}

// L2Slices returns the effective slice count after geometry clamping (1
// before a sharded run has built its slices, and for serial runs).
func (s *Simulator) L2Slices() int {
	return max(s.kSlices, 1)
}

// sliceGeometryOK reports whether the configuration splits into k slices:
// every partitioned structure must divide evenly and the sub-TLB must keep
// a power-of-two set count.
func (s *Simulator) sliceGeometryOK(k int) bool {
	if s.cfg.MemPartitions < k {
		return false
	}
	e := s.cfg.L2TLB.Entries
	if e%k != 0 || (e/k)%s.cfg.L2TLB.Assoc != 0 {
		return false
	}
	sets := (e / k) / s.cfg.L2TLB.Assoc
	if sets < 1 || sets&(sets-1) != 0 {
		return false
	}
	cs := s.cfg.L2Cache
	set := cs.LineBytes * cs.Assoc
	return cs.SizeBytes%k == 0 && (cs.SizeBytes/k)%set == 0 && cs.SizeBytes/k >= set
}

// buildSlices constructs the per-slice contexts, the sliced crossbar and
// the per-SM MSHR banks for every sharded run; a request the geometry
// cannot honour degrades (power of two by power of two) toward one slice.
func (s *Simulator) buildSlices() {
	k := 1
	for k*2 <= s.l2Slices {
		k *= 2
	}
	for k > 1 && !s.sliceGeometryOK(k) {
		k /= 2
	}
	s.kSlices = k
	s.sliceBits = uintLog2(k)
	// Slice by UVM population block (16 pages for 4KB pages) so a block's
	// pages land in one slice and demand-paging order stays canonical; 2MB
	// pages populate singly and slice on the page itself.
	s.sliceShift = 0
	if s.cfg.PageSize == arch.PageSize4K {
		s.sliceShift = uintLog2(vm.BasicBlockPages)
	}

	tc := s.cfg.L2TLB
	tc.Entries /= k
	cc := s.cfg.L2Cache
	cc.SizeBytes /= k
	mshrs := max(s.cfg.TranslationMSHRs/k, 1)
	walkers := max(s.cfg.NumWalkers/k, 1)
	ports := max(s.cfg.L2TLBPorts/k, 1)

	s.slices = make([]*sliceCtx, k)
	for i := 0; i < k; i++ {
		sc := &sliceCtx{
			idx:         i,
			l2tlb:       tlb.New(tc, s.l2opt),
			l2cache:     cache.New(cc),
			l2Inflight:  newInflightTable(s.cfg.NumSMs * mshrs),
			l2tlbMeters: make([]noc.Meter, ports),
			walkers:     walkers,
			transLat:    stats.NewHistogram(len(Result{}.TranslationLatency)),
			tenants:     make([]sliceTenant, len(s.tenants)),
			tbfin:       make([]int, len(s.tenants)),
			walkTID:     walkerTID + 2 + i,
			ctrName:     fmt.Sprintf("walkers/s%d", i),
		}
		if s.l2Partitioned {
			sc.l2tlb.ConfigureSlots(s.numSlots)
		}
		if s.cfg.PWCEntries > 0 {
			n := max(s.cfg.PWCEntries/k, 1)
			sc.pwc = tlb.New(arch.TLBConfig{Entries: n, Assoc: n, LookupLatency: 1},
				tlb.Options{Policy: arch.IndexByAddress})
		}
		for p := i; p < s.cfg.MemPartitions; p += k {
			sc.parts = append(sc.parts, p)
		}
		s.slices[i] = sc
	}
	if s.l2Bounds != nil {
		s.applySliceBounds()
	}
	s.xslice = noc.NewSliced(s.cfg.NumSMs, s.cfg.MemPartitions, k,
		s.cfg.InterconnectLatency, s.cfg.NoCServiceCycles)
	for _, tn := range s.tenants {
		tn.as.ConfigureSlices(k)
	}
	for _, sm := range s.sms {
		sm.slMSHR = make([]sliceMSHR, k)
		for b := range sm.slMSHR {
			sm.slMSHR[b] = sliceMSHR{
				inflight:    newInflightTable(mshrs),
				handlers:    make([]engine.Cycle, mshrs),
				pendingMiss: make(map[vm.VPN]struct{}, 8),
			}
		}
	}
	s.segStart = make([]int, len(s.shards))
	s.segEnd = make([]int, len(s.shards))
	s.mergeCur = make([]int, len(s.shards))
}

// vpnSlice maps a VPN to its owning slice: a pure address function, keyed
// above the UVM block bits so one population block stays in one slice.
func (s *Simulator) vpnSlice(vpn vm.VPN) int {
	return int((uint64(vpn) >> s.sliceShift) & uint64(s.kSlices-1))
}

// vpnCompact removes the slice-index bits from a VPN, bijectively within
// the slice, preserving the block-internal low bits: sub-structures of
// 1/K capacity index the compacted space densely.
func (s *Simulator) vpnCompact(vpn vm.VPN) vm.VPN {
	low := uint64(vpn) & (1<<s.sliceShift - 1)
	return vm.VPN((uint64(vpn)>>(s.sliceShift+s.sliceBits))<<s.sliceShift | low)
}

// applySliceBounds installs the current explicit L2 TLB set partition onto
// every sub-TLB, scaled by 1/K (integer division keeps bounds monotone; a
// slot squeezed to zero sub-sets simply holds no entries in that slice).
func (s *Simulator) applySliceBounds() {
	if s.subBounds == nil {
		s.subBounds = make([]int, len(s.l2Bounds))
	}
	for i, v := range s.l2Bounds {
		s.subBounds[i] = v / s.kSlices
	}
	for _, sc := range s.slices {
		sc.l2tlb.SetPartition(s.subBounds)
	}
}

// barrier ends an epoch: the epoch's canonical op stream is segmented at
// tenant-completion fences; each segment runs the slice pass, then the
// per-SM pass, then the serial TB-finish tail. Global events pop last —
// every op precedes every pending global event in time (ops sit strictly
// before the limit, globals at or past it), so this is the time-ordered
// interleaving of the two.
func (s *Simulator) barrier(limit engine.Cycle) {
	s.flushShardTraces()

	fin := s.finRefs[:0]
	total := 0
	for k, sh := range s.shards {
		total += len(sh.ops)
		for i := range sh.ops {
			if sh.ops[i].kind == opTBFinish {
				fin = append(fin, finRef{t: sh.ops[i].t, shard: int32(k), idx: int32(i)})
			}
		}
	}
	slices.SortFunc(fin, func(a, b finRef) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.shard, b.shard), cmp.Compare(a.idx, b.idx))
	})
	if len(fin) > 0 {
		// Project the per-tenant completion counts to find the fences.
		proj := s.projTB
		if len(proj) != len(s.tenants) {
			proj = make([]int, len(s.tenants))
			s.projTB = proj
		}
		for i := range proj {
			proj[i] = s.tenants[i].tbsDone
		}
		for i := range fin {
			op := &s.shards[fin[i].shard].ops[fin[i].idx]
			a := int(op.ws.asid)
			proj[a]++
			if proj[a] == len(op.ws.tn.kernel.TBs) {
				fin[i].fence = true
			}
		}
	}

	segStart, segEnd := s.segStart, s.segEnd
	for i := range segStart {
		segStart[i] = 0
	}
	if total > 0 {
		finLo := 0
		for i := range fin {
			if !fin[i].fence {
				continue
			}
			s.sliceSegEnds(segStart, segEnd, fin[i])
			s.runSliceSegment(segStart, segEnd, fin, finLo, i+1)
			copy(segStart, segEnd)
			finLo = i + 1
		}
		for k, sh := range s.shards {
			segEnd[k] = len(sh.ops)
		}
		s.runSliceSegment(segStart, segEnd, fin, finLo, len(fin))
	}
	s.foldSliceEpoch()
	for s.queue.Len() > 0 && s.queue.NextCycle() <= limit {
		ev := s.queue.Pop()
		if ev.At < s.clock {
			pastEvent(ev.At, s.clock)
		}
		s.clock = ev.At
		s.profile.GlobalEvents++
		ev.Fn()
	}
	for _, sh := range s.shards {
		sh.ops = sh.ops[:0]
	}
	s.finRefs = fin[:0]
}

// sliceSegEnds computes, per shard, the end of the segment closed by fence
// f: the first op canonically after (f.t, f.shard, f.idx).
func (s *Simulator) sliceSegEnds(segStart, segEnd []int, f finRef) {
	for k, sh := range s.shards {
		if int32(k) == f.shard {
			segEnd[k] = int(f.idx) + 1
			continue
		}
		j := segStart[k]
		for j < len(sh.ops) {
			t := sh.ops[j].t
			if t > f.t || (t == f.t && int32(k) > f.shard) {
				break
			}
			j++
		}
		segEnd[k] = j
	}
}

// runSliceSegment runs one fence-delimited segment of the canonical op
// stream: Phase A (one slice pass applying every op part to its slice),
// the slice trace flush, Phase B (per-SM fill/wake pass, in any order),
// then the serial TB-finish tail in canonical order — the fence, if any, is
// the tail's last op and may repartition the sub-TLBs for the next segment.
func (s *Simulator) runSliceSegment(segStart, segEnd []int, fin []finRef, finLo, finHi int) {
	work := false
	for k := range segStart {
		if segStart[k] < segEnd[k] {
			work = true
			break
		}
	}
	if work {
		t0 := time.Now()
		if s.passOrderHook == nil {
			s.slicePass(segStart, segEnd, allSlices)
		} else {
			// A test's pass order: one pass per slice, in that order, which
			// only gives the same result if no slice reads another's state.
			for _, k := range s.passOrderHook(s.kSlices) {
				s.slicePass(segStart, segEnd, k)
			}
		}
		t1 := time.Now()
		s.profile.SlicePassSeconds += t1.Sub(t0).Seconds()
		s.flushSliceTraces()
		t2 := time.Now()
		for _, i := range s.passOrder(len(s.shards)) {
			s.smPass(i, segStart[i], segEnd[i])
		}
		s.profile.SMPassSeconds += time.Since(t2).Seconds()
	}
	for fi := finLo; fi < finHi; fi++ {
		op := &s.shards[fin[fi].shard].ops[fin[fi].idx]
		s.profile.SerialOps++
		s.clock = op.t
		tn := op.ws.tn
		tn.tbsDone++
		s.tbsDone++
		if tn.tbsDone == len(tn.kernel.TBs) {
			// The sub-TLBs released the tenant's partition sharing state at
			// this op's canonical position inside the slice pass (tbfin
			// shadow); only the departure itself is serial.
			s.depart(tn)
		}
		s.scheduleDispatch()
	}
}

// allSlices is slicePass's "every slice" restriction.
const allSlices = -1

// slicePass replays the segment once: a k-way merge over the shards' op
// ranges in canonical (t, shard, seq) order, handing each op part to the
// slice that owns it. Each slice sees its own parts in canonical order and
// touches only its own state, so interleaving the slices changes nothing.
// only >= 0 restricts the pass to that slice's parts.
func (s *Simulator) slicePass(segStart, segEnd []int, only int) {
	cur := s.mergeCur
	h := s.mergeHeap[:0]
	for k, sh := range s.shards {
		cur[k] = segStart[k]
		if segStart[k] < segEnd[k] {
			h = mergePush(h, mergeEntry{t: sh.ops[segStart[k]].t, shard: int32(k)})
		}
	}
	for len(h) > 0 {
		best := int(h[0].shard)
		sh := s.shards[best]
		op := &sh.ops[cur[best]]
		cur[best]++
		if cur[best] < segEnd[best] {
			h = mergeFix(h, sh.ops[cur[best]].t)
		} else {
			h = mergePop(h)
		}
		s.opStamp++
		s.sliceApplyOp(best, op, only)
	}
	s.mergeHeap = h[:0]
}

// sliceActs marks op as one slice sc acts on: the first part of an op a
// slice applies counts one op for the slice and reports it to the apply
// observer.
func (s *Simulator) sliceActs(sc *sliceCtx, shard int, op *sharedOp) {
	if sc.opStamp == s.opStamp {
		return
	}
	sc.opStamp = s.opStamp
	sc.ops++
	if s.onSliceApply != nil {
		s.onSliceApply(sc.idx, op.t, shard, op.seq)
	}
}

// sliceApplyOp applies each part of one op to its owning slice (only that
// slice's parts when only >= 0). Ownership is decided from read-only fields
// (vpn, phys), so no slice reads a field another slice writes.
func (s *Simulator) sliceApplyOp(shard int, op *sharedOp, only int) {
	switch op.kind {
	case opMem:
		pi := op.pi
		if pi.stage == 0 {
			for i := range pi.pages {
				pp := &pi.pages[i]
				if !pp.pending {
					continue
				}
				k := s.vpnSlice(pp.vpn)
				if only >= 0 && k != only {
					continue
				}
				sc := s.slices[k]
				s.sliceActs(sc, shard, op)
				pp.ppn, pp.done, pp.fill = s.translateMissSliced(sc, pi.ws.tn, pi.ws.sm, pi.ws.slot, pp.vpn, pp.t1, op.t)
				pp.pending = false
				sc.transLat.Observe(int64(pp.done - pi.t))
			}
			return
		}
		for i := range pi.lines {
			pl := &pi.lines[i]
			part := s.mem.Partition(pl.phys)
			k := part & (s.kSlices - 1)
			if only >= 0 && k != only {
				continue
			}
			sc := s.slices[k]
			s.sliceActs(sc, shard, op)
			pl.done = s.dataMissSliced(sc, pi.ws.sm, pl.phys, part, pl.start)
		}
	case opTBFinish:
		// Every slice acts on a TB finish (no slice counts it as an op):
		// its sub-TLB releases a finished tenant's partition sharing state.
		tn := op.ws.tn
		a := int(op.ws.asid)
		for _, sc := range s.slices {
			if only >= 0 && sc.idx != only {
				continue
			}
			if s.onSliceApply != nil {
				s.onSliceApply(sc.idx, op.t, shard, op.seq)
			}
			sc.tbfin[a]++
			if sc.tbfin[a] == len(tn.kernel.TBs) && s.l2Partitioned {
				sc.l2tlb.OnTBFinish(tn.slot)
			}
		}
	case opEvict:
		k := s.vpnSlice(op.vpn)
		if only >= 0 && k != only {
			return
		}
		sc := s.slices[k]
		s.sliceActs(sc, shard, op)
		ppn := op.ppn
		if ppn >= pendingThreshold {
			// Placeholder victim: write back the real PPN if the fill already
			// resolved (its op precedes this one in this slice's canonical
			// order), else drop the write-back — the entry held nothing.
			real, ok := s.tenants[op.asid].as.PageTable().Translate(op.vpn)
			if !ok {
				return
			}
			ppn = real
		}
		sl := s.tenants[op.asid].slot
		cvpn := s.vpnCompact(op.vpn)
		if !sc.l2tlb.ContainsA(op.asid, sl, cvpn) {
			sc.l2tlb.InsertA(op.asid, sl, cvpn, ppn)
		}
		if s.tracer.Enabled() {
			sc.traceBuf = append(sc.traceBuf, sliceTraceEv{
				kind: sliceTrEvict, sm: s.shards[shard].sm.id, vpn: int64(op.vpn), ts: int64(op.t),
			})
		}
	}
}

// translateMissSliced is the serial engine's translateMiss against one
// slice's sub-structures: the SM's per-slice MSHR bank, the sliced
// crossbar, the sub-TLB (compacted VPN), the slice's walker share, and its
// walk-merge window. `now` is the op's request cycle (translateMiss reads
// s.clock, which a slice pass must not). The returned fill flag tells
// Phase B whether to rewrite the SM's L1 placeholder (false only on the
// MSHR-bank merge, which never fills — exactly as translateMiss).
func (s *Simulator) translateMissSliced(sc *sliceCtx, tn *tenantState, sm *smState, slot int, vpn vm.VPN, t1, now engine.Cycle) (vm.PPN, engine.Cycle, bool) {
	asid := tn.asid
	key := tenantKey(asid, vpn)
	bk := &sm.slMSHR[sc.idx]
	ta := &sc.tenants[asid]

	// Merge with an in-flight miss to the same page from this SM (MSHR bank).
	if inf, ok := bk.inflight.get(key); ok && inf.done > now {
		if t1 > inf.done {
			ta.stallWalk += int64(t1 - now)
			return inf.ppn, t1, false
		}
		ta.stallWalk += int64(inf.done - now)
		return inf.ppn, inf.done, false
	}

	// A new miss needs a free MSHR in this slice's bank; when all are
	// occupied the request waits for the earliest one.
	h := 0
	for i := 1; i < len(bk.handlers); i++ {
		if bk.handlers[i] < bk.handlers[h] {
			h = i
		}
	}
	if bk.handlers[h] > t1 {
		t1 = bk.handlers[h]
	}

	cvpn := s.vpnCompact(vpn)
	tlbPart := sc.parts[int(uint64(cvpn))%len(sc.parts)]
	t2 := s.xslice.Traverse(sm.id, sc.idx, tlbPart, t1)
	ppn2, hit2, probed2 := sc.l2tlb.LookupA(asid, tn.slot, cvpn)
	bank := int(uint64(cvpn)) % len(sc.l2tlbMeters)
	l2cost := probed2 * s.cfg.L2TLB.LookupLatency
	start := sc.l2tlbMeters[bank].Reserve(t2, l2cost)
	t3 := start + engine.Cycle(l2cost)
	if hit2 {
		done := s.xslice.Return(tlbPart, sm.id, sc.idx, t3)
		delete(bk.pendingMiss, key)
		s.sliceTraceFill(sc, sm.id, vpn, done, "l2tlb")
		bk.inflight.put(key, ppn2, done, now)
		bk.handlers[h] = done
		ta.l2Hits++
		ta.stallL2 += int64(done - now)
		return ppn2, done, true
	}

	// Merge with a walk in flight from another SM of the same tenant.
	if inf, ok := sc.l2Inflight.get(key); ok && inf.done > now {
		wait := inf.done
		if t3 > wait {
			wait = t3
		}
		done := s.xslice.Return(tlbPart, sm.id, sc.idx, wait)
		delete(bk.pendingMiss, key)
		bk.inflight.put(key, inf.ppn, done, now)
		bk.handlers[h] = done
		ta.stallWalk += int64(done - now)
		return inf.ppn, done, true
	}

	// Page-table walk through the slice's walker share; first touch
	// demand-pages from the slice's own frame allocator.
	wppn, faulted := tn.as.TouchSlice(vm.Addr(vpn)<<s.pageShift, sc.idx)
	lat := engine.Cycle(s.cfg.WalkLatency)
	if sc.pwc != nil {
		region := vm.VPN(vpn >> 9)
		if _, hit, _ := sc.pwc.LookupA(asid, 0, region); hit {
			lat = engine.Cycle(s.cfg.WalkLatency / vm.Levels)
			sc.pwcHits++
		} else {
			sc.pwc.InsertA(asid, 0, region, 0)
		}
	}
	if faulted {
		lat += engine.Cycle(s.cfg.PageFaultLatency)
	}
	poolCost := max(int(lat)/sc.walkers, 1)
	wstart := sc.walkerMeter.Reserve(t3, poolCost)
	wdone := wstart + lat
	sc.walks++
	ta.walks++
	if faulted {
		sc.faults++
		ta.faults++
	}
	s.sliceTraceWalk(sc, sm.id, vpn, wstart, wdone, faulted)

	sc.l2tlb.InsertA(asid, tn.slot, cvpn, wppn)
	delete(bk.pendingMiss, key)
	s.sliceTraceFill(sc, sm.id, vpn, wdone, "walk")
	sc.l2Inflight.put(key, wppn, wdone, now)
	done := s.xslice.Return(tlbPart, sm.id, sc.idx, wdone)
	bk.inflight.put(key, wppn, done, now)
	bk.handlers[h] = done
	if faulted {
		ta.stallFault += int64(done - now)
	} else {
		ta.stallWalk += int64(done - now)
	}
	return wppn, done, true
}

// dataMissSliced is dataMiss against one slice's resources: the sliced
// crossbar rings, the slice's sub-L2-cache, and its own DRAM partitions
// (part, the line's partition, is one of them by construction).
func (s *Simulator) dataMissSliced(sc *sliceCtx, sm *smState, phys cache.LineAddr, part int, start engine.Cycle) engine.Cycle {
	t := start + engine.Cycle(s.cfg.L1Cache.HitLatency)
	arrive := s.xslice.Traverse(sm.id, sc.idx, part, t)
	t = arrive + engine.Cycle(s.cfg.L2Cache.HitLatency)
	if !sc.l2cache.Access(phys) {
		t = s.mem.Access(phys, t)
	}
	return s.xslice.Return(part, sm.id, sc.idx, t)
}

// smPass is Phase B for one shard: with every pending page and line of the
// segment resolved by the slice pass, apply the L1 fills and advance each
// deferred instruction one stage — in any shard order, since everything
// touched (the SM's L1 TLB, its queue, its shard counters) is
// shard-private. Stage
// 0 schedules the warp's resume event — the data-line loop — at the cycle
// the last translation lands; stage 1 wakes or retires the warp once its
// missed lines return. Every cycle produced here sits at least one
// interconnect round trip past the op's request cycle, so it can never
// land before the current epoch's limit — which is what keeps the outcome
// independent of the epoch length.
func (s *Simulator) smPass(shard int, segStart, segEnd int) {
	sh := s.shards[shard]
	for i := segStart; i < segEnd; i++ {
		op := &sh.ops[i]
		if op.kind != opMem {
			continue
		}
		sh.smPassOps++
		pi := op.pi
		ws := pi.ws
		sm := ws.sm
		if pi.stage == 0 {
			resumeAt := pi.t + 1
			for j := range pi.pages {
				pp := &pi.pages[j]
				if pp.fill {
					sm.l1tlb.UpdateA(ws.asid, ws.slot, pp.vpn, pp.ppn)
					pp.fill = false
				}
				if pp.done > resumeAt {
					resumeAt = pp.done
				}
			}
			sh.queue.SchedulePri(resumeAt, shardPri(pi.t, schedClsPhase, pi.insIdx), ws.resume)
			continue
		}
		instDone := pi.localDone
		for j := range pi.lines {
			if d := pi.lines[j].done; d > instDone {
				instDone = d
			}
		}
		retire := pi.retire
		opT := pi.t
		ws.pi = nil
		sh.putPI(pi)
		if retire {
			if instDone > sh.lastDone {
				sh.lastDone = instDone
			}
			st := &sh.tenants[ws.asid]
			if instDone > st.lastDone {
				st.lastDone = instDone
			}
			sh.queue.SchedulePri(instDone, shardPri(opT, schedClsBarrier, 0), ws.retire)
			continue
		}
		sh.queue.SchedulePri(instDone, shardPri(opT, schedClsBarrier, 0), ws.wake)
	}
}

// sliceTraceFill buffers an L1-fill instant event (slice-pass counterpart
// of traceFill).
func (s *Simulator) sliceTraceFill(sc *sliceCtx, smID int, vpn vm.VPN, at engine.Cycle, src string) {
	if !s.tracer.Enabled() {
		return
	}
	sc.traceBuf = append(sc.traceBuf, sliceTraceEv{
		kind: sliceTrFill, sm: smID, vpn: int64(vpn), ts: int64(at), src: src,
	})
}

// sliceTraceWalk buffers one walk's complete event plus the slice walker
// pool's occupancy sample (slice-pass counterpart of traceWalk).
func (s *Simulator) sliceTraceWalk(sc *sliceCtx, smID int, vpn vm.VPN, start, done engine.Cycle, faulted bool) {
	if !s.tracer.Enabled() {
		return
	}
	live := sc.walkEnds[:0]
	for _, end := range sc.walkEnds {
		if end > start {
			live = append(live, end)
		}
	}
	sc.walkEnds = append(live, done)
	f := int64(0)
	if faulted {
		f = 1
	}
	sc.traceBuf = append(sc.traceBuf, sliceTraceEv{
		kind: sliceTrWalk, sm: smID, vpn: int64(vpn),
		ts: int64(start), dur: int64(done - start), fault: f,
		inUse: int64(len(sc.walkEnds)),
	})
}

// flushSliceTraces drains every slice's trace buffer into the tracer in
// slice order — a fixed order, so traces are identical for every pass
// order.
func (s *Simulator) flushSliceTraces() {
	if !s.tracer.Enabled() {
		return
	}
	for _, sc := range s.slices {
		for i := range sc.traceBuf {
			ev := &sc.traceBuf[i]
			switch ev.kind {
			case sliceTrWalk:
				s.tracer.Complete(s.tracePID, sc.walkTID, "walk", "walker",
					ev.ts, ev.dur,
					map[string]int64{"vpn": ev.vpn, "sm": int64(ev.sm), "fault": ev.fault})
				s.tracer.CounterEvent(s.tracePID, sc.ctrName, ev.ts,
					map[string]int64{"in_flight": ev.inUse})
			case sliceTrFill:
				s.tracer.Instant(s.tracePID, ev.sm, "l1tlb_fill_"+ev.src, "tlb",
					ev.ts, map[string]int64{"vpn": ev.vpn})
			case sliceTrEvict:
				s.tracer.Instant(s.tracePID, ev.sm, "l1tlb_evict", "tlb",
					ev.ts, map[string]int64{"vpn": ev.vpn})
			}
		}
		sc.traceBuf = sc.traceBuf[:0]
	}
}

// foldSliceEpoch folds every slice's epoch-delta counters into the
// simulator's registered counters and tenant totals, then zeroes them.
// Runs at the end of every epoch, before global events pop: the sampling
// callback and the controller tick read these counters, and they must see
// barrier-stable sums identical for every pass order and epoch length.
func (s *Simulator) foldSliceEpoch() {
	for _, sc := range s.slices {
		if sc.walks != 0 {
			s.walks.Add(sc.walks)
			sc.walks = 0
		}
		if sc.faults != 0 {
			s.faults.Add(sc.faults)
			sc.faults = 0
		}
		if sc.pwcHits != 0 {
			s.pwcHits.Add(sc.pwcHits)
			sc.pwcHits = 0
		}
		for ti := range sc.tenants {
			ta := &sc.tenants[ti]
			if *ta == (sliceTenant{}) {
				continue
			}
			tn := s.tenants[ti]
			tn.l2Hits += ta.l2Hits
			tn.walks += ta.walks
			tn.faults += ta.faults
			tn.stallL2 += ta.stallL2
			tn.stallWalk += ta.stallWalk
			tn.stallFault += ta.stallFault
			*ta = sliceTenant{}
		}
	}
}

// foldSlices folds the slices' structural stats into the registered
// whole-machine components at the end of a run, so the stats tree and
// Result report combined activity from the usual nodes.
func (s *Simulator) foldSlices() {
	for _, sc := range s.slices {
		s.l2tlb.AddStats(sc.l2tlb.Stats())
		s.l2tlb.FoldMech(sc.l2tlb)
		s.l2cache.AddStats(sc.l2cache.Stats())
		if s.pwc != nil && sc.pwc != nil {
			s.pwc.AddStats(sc.pwc.Stats())
		}
		if err := s.transLatency.Merge(sc.transLat); err != nil {
			panic("sim: slice histogram shape mismatch: " + err.Error())
		}
	}
	s.xbar.AddCounts(s.xslice.Packets(), s.xslice.Stalls())
}
