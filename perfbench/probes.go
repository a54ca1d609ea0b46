package main

import (
	"fmt"
	"time"

	"gputlb/internal/arch"
	"gputlb/internal/cache"
	"gputlb/internal/dram"
	"gputlb/internal/engine"
	"gputlb/internal/noc"
	"gputlb/internal/tlb"
	"gputlb/internal/tlbmech"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
	"gputlb/internal/workloads"
)

// probeKernels are the kernels whose address streams the component probes
// replay: a hit-heavy graph kernel and a walk-heavy scan kernel.
var probeKernels = []string{"bfs", "atax"}

const (
	// probeStreamCap bounds each kernel's page and line stream.
	probeStreamCap = 250_000
	// probePasses is how many times each probe replays its streams; the
	// median pass is reported.
	probePasses = 5
)

// probeStream is one kernel's coalesced translation and line requests in
// TB, warp and instruction order, the order one SM would issue them.
type probeStream struct {
	as    *vm.AddressSpace
	pages []vm.VPN
	lines []cache.LineAddr
}

func newProbeStream(k *trace.Kernel, as *vm.AddressSpace, lineBytes int) probeStream {
	ps := probeStream{as: as}
	var pbuf []vm.VPN
	var lbuf []vm.Addr
	for _, tb := range k.TBs {
		for _, w := range tb.Warps {
			for _, in := range w.Insts {
				if !in.IsMem() {
					continue
				}
				if len(ps.pages) < probeStreamCap {
					pbuf = trace.CoalescePagesInto(pbuf[:0], in.Addrs, as.PageShift())
					ps.pages = append(ps.pages, pbuf...)
				}
				if len(ps.lines) < probeStreamCap {
					lbuf = trace.CoalesceLinesInto(lbuf[:0], in.Addrs, lineBytes)
					for _, a := range lbuf {
						ps.lines = append(ps.lines, cache.LineAddr(uint64(a)/uint64(lineBytes)))
					}
				}
				if len(ps.pages) >= probeStreamCap && len(ps.lines) >= probeStreamCap {
					return ps
				}
			}
		}
	}
	return ps
}

// timeProbe runs fn once per pass and returns the median nanoseconds per
// operation, where one pass performs ops operations.
func timeProbe(ops int, fn func()) float64 {
	var ns []float64
	for i := 0; i < probePasses; i++ {
		t0 := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(ns)
}

// runProbes replays bfs's and atax's page and line streams through each
// component's public API: an L1 TLB per translation mechanism, the L1 data
// cache, the crossbar, DRAM and the page-table walker.
func runProbes(r *run, rec *recorder, parent int) error {
	cfg := arch.Default()
	p := workloads.DefaultParams()
	var streams []probeStream
	var nPages, nLines int
	for _, name := range probeKernels {
		k, as, ok := workloads.CachedByName(name, p)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", name)
		}
		ps := newProbeStream(k, as, cfg.L1Cache.LineBytes)
		streams = append(streams, ps)
		nPages += len(ps.pages)
		nLines += len(ps.lines)
	}
	id := rec.begin(parent, "bench", "component probes", 0, 0)
	defer rec.end(id)
	probe := func(layer, name string, ops int, fn func()) float64 {
		sp := rec.begin(id, layer, name, 0, 0)
		defer rec.end(sp)
		r.attempted++
		return timeProbe(ops, fn)
	}

	for _, kind := range tlbmech.Known() {
		kind := kind
		r.set("tlb.probe_ns."+kind, probe("tlb", "tlb.LookupA/InsertA "+kind, nPages, func() {
			t := tlb.New(cfg.L1TLB, tlb.Options{Policy: arch.IndexByAddress, Mech: tlbmech.Spec{Kind: kind}})
			for _, ps := range streams {
				for _, vpn := range ps.pages {
					if _, hit, _ := t.LookupA(0, 0, vpn); !hit {
						t.InsertA(0, 0, vpn, vm.PPN(vpn)+1)
					}
				}
			}
		}))
	}
	r.set("cache.access_ns", probe("cache", "cache.Access", nLines, func() {
		c := cache.New(cfg.L1Cache)
		for _, ps := range streams {
			for _, l := range ps.lines {
				c.Access(l)
			}
		}
	}))
	r.set("noc.traverse_ns", probe("noc", "noc.Traverse/Return", nLines, func() {
		x := noc.New(cfg.NumSMs, cfg.MemPartitions, cfg.InterconnectLatency, cfg.NoCServiceCycles)
		for _, ps := range streams {
			for i, l := range ps.lines {
				sm, part, at := i%cfg.NumSMs, int(uint64(l)%uint64(cfg.MemPartitions)), engine.Cycle(i)
				x.Return(part, sm, x.Traverse(sm, part, at))
			}
		}
	}))
	r.set("dram.access_ns", probe("dram", "dram.Access", nLines, func() {
		d := dram.New(dram.Config{
			Partitions:    cfg.MemPartitions,
			BanksPerPart:  cfg.DRAMBanksPerPart,
			RowBytes:      cfg.DRAMRowBytes,
			RowHitCycles:  cfg.DRAMRowHitLatency,
			RowMissCycles: cfg.DRAMLatency,
			LineBytes:     cfg.L1Cache.LineBytes,
		})
		for _, ps := range streams {
			for i, l := range ps.lines {
				d.Access(l, engine.Cycle(i))
			}
		}
	}))

	// The walker probe walks a demand-paged copy of each address space.
	tables := make([]*vm.PageTable, len(streams))
	for i, ps := range streams {
		as := ps.as.Fork()
		for _, vpn := range ps.pages {
			as.Touch(vm.Addr(uint64(vpn) << as.PageShift()))
		}
		tables[i] = as.PageTable()
	}
	var missing int
	r.set("vm.walk_ns", probe("vm", "vm.PageTable.Walk", nPages, func() {
		missing = 0
		for i, ps := range streams {
			for _, vpn := range ps.pages {
				if !tables[i].Walk(vpn).Found {
					missing++
				}
			}
		}
	}))
	r.check(missing == 0, "page walker probe: %d touched pages not found", missing)
	return nil
}
