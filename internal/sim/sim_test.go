package sim

import (
	"strings"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
	"gputlb/internal/workloads"
)

// tinyKernel builds a minimal hand-rolled kernel: nTBs TBs, one warp each,
// each warp touching its own pages then a shared page.
func tinyKernel(t *testing.T, nTBs, instsPerWarp int) (*trace.Kernel, *vm.AddressSpace) {
	t.Helper()
	return tinyKernelAt(t, 12, nTBs, instsPerWarp)
}

// tinyKernelAt is tinyKernel on an address space of the given page shift.
func tinyKernelAt(t *testing.T, pageShift uint, nTBs, instsPerWarp int) (*trace.Kernel, *vm.AddressSpace) {
	t.Helper()
	as := vm.NewAddressSpace(pageShift)
	priv, err := as.Alloc("priv", uint64(nTBs*instsPerWarp)*4096)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := as.Alloc("shared", 4096)
	if err != nil {
		t.Fatal(err)
	}
	k := &trace.Kernel{Name: "tiny", ThreadsPerTB: 32}
	for tb := 0; tb < nTBs; tb++ {
		var wt trace.WarpTrace
		for i := 0; i < instsPerWarp; i++ {
			base := priv.Base + vm.Addr((tb*instsPerWarp+i)*4096)
			addrs := make([]vm.Addr, 32)
			for l := range addrs {
				addrs[l] = base + vm.Addr(l*8)
			}
			wt.Insts = append(wt.Insts, trace.Inst{Addrs: addrs})
			wt.Insts = append(wt.Insts, trace.Inst{Compute: 4})
		}
		sh := make([]vm.Addr, 32)
		for l := range sh {
			sh[l] = shared.Base + vm.Addr(l*8)
		}
		wt.Insts = append(wt.Insts, trace.Inst{Addrs: sh})
		k.TBs = append(k.TBs, trace.TBTrace{ID: tb, Warps: []trace.WarpTrace{wt}})
	}
	return k, as
}

func TestRunCompletesAndCounts(t *testing.T) {
	k, as := tinyKernel(t, 8, 4)
	r, err := Run(arch.Default(), k, as)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Error("zero execution time")
	}
	// 8 TBs x (4 mem + 4 compute + 1 shared mem) instructions.
	if want := int64(8 * 9); r.InstsIssued != want {
		t.Errorf("InstsIssued = %d, want %d", r.InstsIssued, want)
	}
	// Every mem inst touches exactly 1 page: 8*5 translation requests.
	if want := int64(8 * 5); r.PageRequests != want {
		t.Errorf("PageRequests = %d, want %d", r.PageRequests, want)
	}
	if r.L1TLBAccesses() != r.PageRequests {
		t.Errorf("L1 TLB accesses %d != page requests %d", r.L1TLBAccesses(), r.PageRequests)
	}
	// UVM faults once per 16-page basic block: 32 private pages = 2 blocks,
	// plus the shared page's block.
	if r.Faults != 3 {
		t.Errorf("Faults = %d, want 3", r.Faults)
	}
	if r.Walks < r.Faults {
		t.Errorf("Walks = %d below fault count %d", r.Walks, r.Faults)
	}
}

func TestDeterministic(t *testing.T) {
	for _, pol := range []arch.TBSchedulerPolicy{arch.ScheduleRoundRobin, arch.ScheduleTLBAware} {
		cfg := arch.Default()
		cfg.TBScheduler = pol
		k, as := tinyKernel(t, 20, 6)
		r1, err := Run(cfg, k, as)
		if err != nil {
			t.Fatal(err)
		}
		k2, as2 := tinyKernel(t, 20, 6)
		r2, err := Run(cfg, k2, as2)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Cycles != r2.Cycles || r1.L1TLBHitRate != r2.L1TLBHitRate {
			t.Errorf("policy %v: identical runs diverged: %d/%f vs %d/%f",
				pol, r1.Cycles, r1.L1TLBHitRate, r2.Cycles, r2.L1TLBHitRate)
		}
	}
}

func TestRoundRobinSpreadsTBs(t *testing.T) {
	k, as := tinyKernel(t, 32, 2)
	r, err := Run(arch.Default(), k, as)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range r.TBsPerSM {
		if n != 2 {
			t.Errorf("SM %d ran %d TBs, want 2 (32 TBs round-robin over 16 SMs)", i, n)
		}
	}
}

func TestConfigErrors(t *testing.T) {
	k, as := tinyKernel(t, 2, 1)
	bad := arch.Default()
	bad.NumSMs = 0
	if _, err := New(bad, k, as); err == nil {
		t.Error("New accepted invalid config")
	}
	cfg := arch.Default()
	cfg.PageSize = arch.PageSize2M
	if _, err := New(cfg, k, as); err == nil {
		t.Error("New accepted page-size mismatch between config and address space")
	}
	if _, err := New(arch.Default(), &trace.Kernel{Name: "empty", ThreadsPerTB: 32}, as); err == nil {
		t.Error("New accepted empty kernel")
	}
}

func TestSharedPageWalkedOnce(t *testing.T) {
	// All 8 TBs land on different SMs and touch the same shared page last;
	// the L2 TLB plus in-flight merging must keep walks well below one per
	// access.
	k, as := tinyKernel(t, 8, 1)
	r, err := Run(arch.Default(), k, as)
	if err != nil {
		t.Fatal(err)
	}
	// Pages: 8 private + 1 shared = 9; every page walked exactly once if the
	// L2 TLB holds them (it does: 9 << 512 entries).
	if r.Walks != 9 {
		t.Errorf("Walks = %d, want 9 (one per distinct page)", r.Walks)
	}
}

func TestExecutionRespectsComputeBound(t *testing.T) {
	// A kernel of pure compute must take at least its serial compute time
	// on one warp and roughly that (all warps run in parallel across SMs).
	as := vm.NewAddressSpace(12)
	if _, err := as.Alloc("dummy", 4096); err != nil {
		t.Fatal(err)
	}
	k := &trace.Kernel{Name: "compute", ThreadsPerTB: 32}
	const n = 50
	for tb := 0; tb < 16; tb++ {
		var wt trace.WarpTrace
		for i := 0; i < n; i++ {
			wt.Insts = append(wt.Insts, trace.Inst{Compute: 10})
		}
		k.TBs = append(k.TBs, trace.TBTrace{ID: tb, Warps: []trace.WarpTrace{wt}})
	}
	r, err := Run(arch.Default(), k, as)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles < n*10 {
		t.Errorf("Cycles = %d, below serial compute %d", r.Cycles, n*10)
	}
	if r.Cycles > 3*n*10 {
		t.Errorf("Cycles = %d, 16 independent TBs on 16 SMs should run near-parallel (~%d)", r.Cycles, n*10)
	}
}

func TestHitRateImprovesWithLargerTLB(t *testing.T) {
	// The Figure 2 premise: growing L1 TLB from 64 to 256 entries should
	// not reduce — and for thrashing workloads should raise — hit rates.
	s, _ := workloads.ByName("atax")
	p := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.5}
	k, as := s.Build(p)
	small, err := Run(arch.Default(), k, as)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.Default()
	cfg.L1TLB.Entries = 256
	k2, as2 := s.Build(p)
	big, err := Run(cfg, k2, as2)
	if err != nil {
		t.Fatal(err)
	}
	if big.L1TLBHitRate < small.L1TLBHitRate {
		t.Errorf("256-entry hit rate %.3f below 64-entry %.3f", big.L1TLBHitRate, small.L1TLBHitRate)
	}
	if big.L1TLBHitRate < small.L1TLBHitRate+0.05 {
		t.Errorf("atax thrashes at 64 entries; expected a clear gain at 256 (got %.3f -> %.3f)",
			small.L1TLBHitRate, big.L1TLBHitRate)
	}
}

func TestAllWorkloadsRunUnderAllPolicies(t *testing.T) {
	p := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2}
	policies := []struct {
		name string
		mod  func(*arch.Config)
	}{
		{"baseline", func(c *arch.Config) {}},
		{"sched", func(c *arch.Config) { c.TBScheduler = arch.ScheduleTLBAware }},
		{"part", func(c *arch.Config) { c.TLBIndexPolicy = arch.IndexByTB }},
		{"share", func(c *arch.Config) { c.TLBIndexPolicy = arch.IndexByTBShared }},
		{"compress", func(c *arch.Config) { c.TLBMech = "compressed" }},
	}
	for _, s := range workloads.All() {
		for _, pol := range policies {
			cfg := arch.Default()
			pol.mod(&cfg)
			k, as := s.Build(p)
			r, err := Run(cfg, k, as)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, pol.name, err)
			}
			if r.Cycles <= 0 || r.L1TLBAccesses() == 0 {
				t.Errorf("%s/%s: empty result %+v", s.Name, pol.name, r.Cycles)
			}
			if r.L1TLBHitRate < 0 || r.L1TLBHitRate > 1 {
				t.Errorf("%s/%s: hit rate %f out of range", s.Name, pol.name, r.L1TLBHitRate)
			}
		}
	}
}

func TestHugePagesRaiseHitRate(t *testing.T) {
	s, _ := workloads.ByName("mvt")
	p4k := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.5}
	k4, as4 := s.Build(p4k)
	r4, err := Run(arch.Default(), k4, as4)
	if err != nil {
		t.Fatal(err)
	}
	p2m := p4k
	p2m.PageShift = 21
	cfg := arch.Default()
	cfg.PageSize = arch.PageSize2M
	k2, as2 := s.Build(p2m)
	r2, err := Run(cfg, k2, as2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.L1TLBHitRate <= r4.L1TLBHitRate {
		t.Errorf("2MB pages hit rate %.3f not above 4KB %.3f (paper §V: huge pages significantly improve hit rates)",
			r2.L1TLBHitRate, r4.L1TLBHitRate)
	}
}

func TestWalkerContentionSerializesWalks(t *testing.T) {
	// With 1 walker, many cold pages must serialize: execution takes far
	// longer than with 8 walkers.
	k, as := tinyKernel(t, 16, 8)
	cfg := arch.Default()
	cfg.NumWalkers = 1
	rSlow, err := Run(cfg, k, as)
	if err != nil {
		t.Fatal(err)
	}
	k2, as2 := tinyKernel(t, 16, 8)
	rFast, err := Run(arch.Default(), k2, as2)
	if err != nil {
		t.Fatal(err)
	}
	if rSlow.Cycles <= rFast.Cycles {
		t.Errorf("1 walker (%d cycles) not slower than 8 walkers (%d cycles)", rSlow.Cycles, rFast.Cycles)
	}
}

func TestWarpSchedulerPolicies(t *testing.T) {
	// All three warp schedulers must complete the same kernel, be
	// deterministic, and issue the same instruction count.
	p := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.25}
	s, _ := workloads.ByName("atax")
	results := map[arch.WarpSchedulerPolicy]Result{}
	for _, pol := range []arch.WarpSchedulerPolicy{arch.WarpGTO, arch.WarpLRR, arch.WarpTransAware} {
		cfg := arch.Default()
		cfg.WarpScheduler = pol
		k, as := s.Build(p)
		r1, err := Run(cfg, k, as)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		k2, as2 := s.Build(p)
		r2, err := Run(cfg, k2, as2)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Cycles != r2.Cycles {
			t.Errorf("%v: nondeterministic (%d vs %d cycles)", pol, r1.Cycles, r2.Cycles)
		}
		results[pol] = r1
	}
	if results[arch.WarpGTO].InstsIssued != results[arch.WarpLRR].InstsIssued ||
		results[arch.WarpGTO].InstsIssued != results[arch.WarpTransAware].InstsIssued {
		t.Error("policies issued different instruction counts")
	}
	// The translation-aware scheduler exists to protect TLB locality: it
	// must not degrade the hit rate materially vs GTO.
	if results[arch.WarpTransAware].L1TLBHitRate < results[arch.WarpGTO].L1TLBHitRate-0.05 {
		t.Errorf("translation-aware hit %.3f well below GTO %.3f",
			results[arch.WarpTransAware].L1TLBHitRate, results[arch.WarpGTO].L1TLBHitRate)
	}
}

func TestWarpSchedulerStrings(t *testing.T) {
	if arch.WarpGTO.String() != "gto" || arch.WarpLRR.String() != "lrr" ||
		arch.WarpTransAware.String() != "translation-aware" {
		t.Error("warp scheduler strings wrong")
	}
}

func TestPhaseBarrierSerializesPhases(t *testing.T) {
	// Two phases of 4 TBs each: phase 2 must not start before phase 1
	// retires, so with one warp per TB the execution time is at least the
	// sum of the two phases' critical paths.
	as := vm.NewAddressSpace(12)
	if _, err := as.Alloc("d", 1<<20); err != nil {
		t.Fatal(err)
	}
	mk := func(n int) *trace.Kernel {
		k := &trace.Kernel{Name: "phased", ThreadsPerTB: 32}
		for tb := 0; tb < n; tb++ {
			var wt trace.WarpTrace
			for i := 0; i < 10; i++ {
				wt.Insts = append(wt.Insts, trace.Inst{Compute: 100})
			}
			k.TBs = append(k.TBs, trace.TBTrace{ID: tb, Warps: []trace.WarpTrace{wt}})
		}
		return k
	}
	flat := mk(8)
	rFlat, err := Run(arch.Default(), flat, as)
	if err != nil {
		t.Fatal(err)
	}
	as2 := vm.NewAddressSpace(12)
	if _, err := as2.Alloc("d", 1<<20); err != nil {
		t.Fatal(err)
	}
	phased := mk(8)
	phased.PhaseStarts = []int{4}
	rPhased, err := Run(arch.Default(), phased, as2)
	if err != nil {
		t.Fatal(err)
	}
	// Flat: all 8 TBs run in parallel (~1000 cycles). Phased: two
	// dependent waves (~2000 cycles).
	if rPhased.Cycles < rFlat.Cycles+900 {
		t.Errorf("phase barrier did not serialize: flat %d, phased %d cycles", rFlat.Cycles, rPhased.Cycles)
	}
}

func TestPhaseValidation(t *testing.T) {
	as := vm.NewAddressSpace(12)
	if _, err := as.Alloc("d", 4096); err != nil {
		t.Fatal(err)
	}
	k := &trace.Kernel{Name: "bad", ThreadsPerTB: 32, PhaseStarts: []int{5}}
	k.TBs = append(k.TBs, trace.TBTrace{ID: 0, Warps: []trace.WarpTrace{{Insts: []trace.Inst{{Compute: 1}}}}})
	if _, err := New(arch.Default(), k, as); err == nil {
		t.Error("out-of-range phase start accepted")
	}
}

func TestPageWalkCacheShortensWalks(t *testing.T) {
	p := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.3}
	s, _ := workloads.ByName("bicg")
	k, as := s.Build(p)
	base, err := Run(arch.Default(), k, as)
	if err != nil {
		t.Fatal(err)
	}
	if base.PWCHits != 0 {
		t.Errorf("PWCHits = %d with PWC disabled", base.PWCHits)
	}
	cfg := arch.Default()
	cfg.PWCEntries = 64
	k2, as2 := s.Build(p)
	pwc, err := Run(cfg, k2, as2)
	if err != nil {
		t.Fatal(err)
	}
	if pwc.PWCHits == 0 {
		t.Error("PWC never hit on a walk-heavy workload")
	}
	if pwc.Cycles >= base.Cycles {
		t.Errorf("PWC did not speed up a walk-bound run (%d vs %d cycles)", pwc.Cycles, base.Cycles)
	}
}

func TestReplacementPoliciesRun(t *testing.T) {
	p := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2}
	s, _ := workloads.ByName("atax")
	hits := map[arch.TLBReplacementPolicy]float64{}
	for _, pol := range []arch.TLBReplacementPolicy{arch.ReplaceLRU, arch.ReplaceFIFO, arch.ReplaceRandom} {
		cfg := arch.Default()
		cfg.TLBReplacement = pol
		k, as := s.Build(p)
		r, err := Run(cfg, k, as)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		hits[pol] = r.L1TLBHitRate
	}
	// LRU should be at least as good as random on a scan-residency kernel.
	if hits[arch.ReplaceLRU] < hits[arch.ReplaceRandom]-0.05 {
		t.Errorf("LRU hit %.3f well below random %.3f", hits[arch.ReplaceLRU], hits[arch.ReplaceRandom])
	}
}

func TestTLBAwareSteeringEndToEnd(t *testing.T) {
	// Build a kernel whose early TBs poison some SMs' TLBs (heavy
	// thrashers) and verify the aware scheduler distributes later TBs at
	// least as well as round-robin (no SM starves).
	p := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.5}
	s, _ := workloads.ByName("bfs")
	cfg := arch.Default()
	cfg.TBScheduler = arch.ScheduleTLBAware
	k, as := s.Build(p)
	r, err := Run(cfg, k, as)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range r.TBsPerSM {
		if n == 0 {
			t.Error("an SM ran zero TBs under the aware scheduler")
		}
		total += n
	}
	if total != len(k.TBs) {
		t.Errorf("TBs run = %d, want %d", total, len(k.TBs))
	}
}

func TestDispatchPeriodBoundsPlacementDelay(t *testing.T) {
	// A longer dispatch period must not deadlock and only modestly change
	// execution time on a balanced kernel.
	p := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2}
	s, _ := workloads.ByName("gemm")
	base := arch.Default()
	k1, as1 := s.Build(p)
	r1, err := Run(base, k1, as1)
	if err != nil {
		t.Fatal(err)
	}
	slow := arch.Default()
	slow.TBDispatchPeriod = 1024
	k2, as2 := s.Build(p)
	r2, err := Run(slow, k2, as2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles < r1.Cycles {
		t.Logf("longer period ran faster (%d vs %d) — acceptable, just informative", r2.Cycles, r1.Cycles)
	}
	if float64(r2.Cycles) > 3*float64(r1.Cycles) {
		t.Errorf("1024-cycle dispatch period ballooned execution: %d vs %d", r2.Cycles, r1.Cycles)
	}
}

func TestNoCAndDRAMStatsExposed(t *testing.T) {
	p := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.3}
	s, _ := workloads.ByName("pagerank")
	k, as := s.Build(p)
	r, err := Run(arch.Default(), k, as)
	if err != nil {
		t.Fatal(err)
	}
	if r.DRAMRowHits+r.DRAMRowMisses == 0 {
		t.Error("no DRAM traffic recorded on a memory-heavy workload")
	}
}

func TestTranslationLatencyHistogram(t *testing.T) {
	p := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2}
	s, _ := workloads.ByName("atax")
	k, as := s.Build(p)
	r, err := Run(arch.Default(), k, as)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range r.TranslationLatency {
		total += c
	}
	if total != r.PageRequests {
		t.Errorf("histogram holds %d translations, want %d", total, r.PageRequests)
	}
	// Hits are 1-cycle-ish: bucket 0/1 must be populated; walks push some
	// mass above 2^8.
	if r.TranslationLatency[0]+r.TranslationLatency[1] == 0 {
		t.Error("no fast translations recorded despite L1 hits")
	}
	var slow int64
	for _, c := range r.TranslationLatency[8:] {
		slow += c
	}
	if slow == 0 {
		t.Error("no slow translations recorded despite 500-cycle walks")
	}
}

// An event scheduled behind the clock is a simulator bug; the serial Run
// loop must stop at it instead of firing it with time running backwards.
func TestRunPanicsOnEventInThePast(t *testing.T) {
	k, as := tinyKernel(t, 2, 2)
	s, err := New(arch.Default(), k, as)
	if err != nil {
		t.Fatal(err)
	}
	s.queue.Schedule(10, func() { s.queue.Schedule(5, func() {}) })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "scheduled in the past") {
			t.Errorf("Run panicked with %q, want the scheduled-in-the-past report", msg)
		}
	}()
	s.Run()
}
