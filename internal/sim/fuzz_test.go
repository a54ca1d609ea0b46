package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"gputlb/internal/arch"
)

// fuzzEntryBound caps the entries (TLB entries and cache lines) a fuzzed
// machine may hold in all, fuzzLatencyBound each cycle count and
// fuzzCountBound each count of SMs, ports, banks, walkers and slots, so
// that no input allocates more than a few MB or simulates for long. Inputs
// past them are skipped; they are the harness's limits, not Validate rules.
const (
	fuzzEntryBound   = 1 << 16
	fuzzLatencyBound = 1 << 16
	fuzzCountBound   = 64
)

// fuzzTooBig reports a machine past the harness bounds.
func fuzzTooBig(c arch.Config) bool {
	lines := func(cc arch.CacheConfig) int { return cc.SizeBytes / cc.LineBytes }
	entries := c.NumSMs*(c.L1TLB.Entries+lines(c.L1Cache)) + c.L2TLB.Entries + lines(c.L2Cache) + c.PWCEntries
	if c.NumSMs > fuzzCountBound || entries > fuzzEntryBound {
		return true
	}
	for _, n := range []int{c.MaxTBsPerSM, c.IssueWidth, c.NumWalkers, c.MemPartitions,
		c.DRAMBanksPerPart, c.L2TLBPorts, c.TranslationMSHRs} {
		if n > fuzzCountBound {
			return true
		}
	}
	for _, n := range []int{c.L1TLB.LookupLatency, c.L2TLB.LookupLatency, c.WalkLatency,
		c.PageFaultLatency, c.L1Cache.HitLatency, c.L2Cache.HitLatency, c.InterconnectLatency,
		c.NoCServiceCycles, c.DRAMLatency, c.DRAMRowHitLatency, c.TBDispatchPeriod} {
		if n > fuzzLatencyBound {
			return true
		}
	}
	return false
}

// FuzzMachineConfig overlays a JSON machine description on Table III the way
// gputlbsim -config does (unknown fields rejected). Either the machine is
// rejected (by Validate, or by New for a mechanism or allocator name), or a
// tiny kernel runs on it to completion without a panic. Besides Table III
// and a 2 MB compressed machine, the seeds are overlays that once crashed
// the simulator, ran it backwards in time or were silently raised, and two
// whose meaning the field comments define (one warp slot, clock 0).
func FuzzMachineConfig(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"DRAMRowBytes": 64}`,
		`{"DRAMBanksPerPart": 0}`,
		`{"InterconnectLatency": -1}`,
		`{"PageFaultLatency": -5000}`,
		`{"MaxWarpsPerSM": 1}`,
		`{"L2Cache": {"LineBytes": 64}}`,
		`{"ClockMHz": 0}`,
		`{"NoCServiceCycles": 0}`,
		`{"PageSize": 2097152, "TLBMech": "compressed", "TLBIndexPolicy": "tb-partitioned+sharing"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, overlay []byte) {
		cfg := arch.Default()
		dec := json.NewDecoder(bytes.NewReader(overlay))
		dec.DisallowUnknownFields()
		if dec.Decode(&cfg) != nil || cfg.Validate() != nil || fuzzTooBig(cfg) {
			return
		}
		k, as := tinyKernelAt(t, cfg.PageShift(), 6, 3)
		s, err := New(cfg, k, as)
		if err != nil {
			return
		}
		if r := s.Run(); r.Cycles <= 0 {
			t.Fatalf("run finished at cycle %d", r.Cycles)
		}
	})
}
