package arch

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultMatchesTableIII(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.NumSMs != 16 {
		t.Errorf("NumSMs = %d, want 16", c.NumSMs)
	}
	if c.L1TLB.Entries != 64 || c.L1TLB.Assoc != 4 || c.L1TLB.LookupLatency != 1 {
		t.Errorf("L1 TLB = %+v, want 64-entry 4-way 1-cycle", c.L1TLB)
	}
	if got := c.L1TLB.Sets(); got != 16 {
		t.Errorf("L1 TLB sets = %d, want 16", got)
	}
	if c.L2TLB.Entries != 512 || c.L2TLB.Assoc != 16 || c.L2TLB.LookupLatency != 10 {
		t.Errorf("L2 TLB = %+v, want 512-entry 16-way 10-cycle", c.L2TLB)
	}
	if c.NumWalkers != 8 || c.WalkLatency != 500 {
		t.Errorf("PTW = %d walkers %d cycles, want 8/500", c.NumWalkers, c.WalkLatency)
	}
	if c.MaxThreads != 2048 || c.MaxWarpsPerSM != 64 || c.MaxTBsPerSM != 16 {
		t.Errorf("SM resources = %d threads %d warps %d TBs, want 2048/64/16",
			c.MaxThreads, c.MaxWarpsPerSM, c.MaxTBsPerSM)
	}
	if c.PageSize != PageSize4K {
		t.Errorf("PageSize = %d, want 4KB", c.PageSize)
	}
	if c.L1Cache.SizeBytes != 16<<10 || c.L1Cache.Assoc != 4 || c.L1Cache.LineBytes != 128 {
		t.Errorf("L1 cache = %+v, want 16KB 4-way 128B", c.L1Cache)
	}
	if c.L2Cache.SizeBytes != 1536<<10 || c.L2Cache.Assoc != 8 {
		t.Errorf("L2 cache = %+v, want 1536KB 8-way", c.L2Cache)
	}
}

func TestTLBConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  TLBConfig
		ok   bool
	}{
		{"table3-l1", TLBConfig{64, 4, 1}, true},
		{"table3-l2", TLBConfig{512, 16, 10}, true},
		{"fig2-large", TLBConfig{256, 4, 1}, true},
		{"zero-entries", TLBConfig{0, 4, 1}, false},
		{"zero-assoc", TLBConfig{64, 0, 1}, false},
		{"indivisible", TLBConfig{65, 4, 1}, false},
		{"non-pow2-sets", TLBConfig{48, 4, 1}, false},
		{"negative-latency", TLBConfig{64, 4, -1}, false},
		{"fully-assoc", TLBConfig{64, 64, 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Validate() = nil, want error")
			}
		})
	}
}

func TestCacheConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  CacheConfig
		ok   bool
	}{
		{"l1", CacheConfig{16 << 10, 128, 4, 28}, true},
		{"l2", CacheConfig{1536 << 10, 128, 8, 120}, true},
		{"zero", CacheConfig{}, false},
		{"indivisible", CacheConfig{16<<10 + 1, 128, 4, 28}, false},
		{"non-pow2-sets-ok", CacheConfig{12 << 10, 128, 4, 28}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok != (err == nil) {
				t.Errorf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestConfigValidateRejectsBadFields(t *testing.T) {
	mutations := map[string]func(*Config){
		"NumSMs":        func(c *Config) { c.NumSMs = 0 },
		"MaxThreads":    func(c *Config) { c.MaxThreads = 16 },
		"MaxTBsPerSM":   func(c *Config) { c.MaxTBsPerSM = 0 },
		"MaxWarpsPerSM": func(c *Config) { c.MaxWarpsPerSM = -1 },
		"IssueWidth":    func(c *Config) { c.IssueWidth = 0 },
		"NumWalkers":    func(c *Config) { c.NumWalkers = 0 },
		"WalkLatency":   func(c *Config) { c.WalkLatency = 0 },
		"PageSize":      func(c *Config) { c.PageSize = 8192 },
		"MemPartitions": func(c *Config) { c.MemPartitions = 0 },
		"Throttle":      func(c *Config) { c.ThrottleTBsPerSM = -3 },
		"ShareCounter":  func(c *Config) { c.ShareCounterThreshold = -1 },
		"L1TLB":         func(c *Config) { c.L1TLB.Assoc = 0 },
		"L2TLB":         func(c *Config) { c.L2TLB.Entries = 0 },
		"L1Cache":       func(c *Config) { c.L1Cache.LineBytes = 0 },
		"L2Cache":       func(c *Config) { c.L2Cache.Assoc = 0 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			c := Default()
			mutate(&c)
			if err := c.Validate(); err == nil {
				t.Errorf("Validate() accepted bad %s", name)
			}
		})
	}
}

// TestValidateMachineOverlays: single-field overlays on Table III that the
// simulator cannot build (dram.New's panics), that run backwards in time
// (negative latencies), or whose meaning the field comments define.
func TestValidateMachineOverlays(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"table3", func(*Config) {}, true},
		{"dram-row-below-line", func(c *Config) { c.DRAMRowBytes = 64 }, false},
		{"dram-row-one-line", func(c *Config) { c.DRAMRowBytes = c.L1Cache.LineBytes }, true},
		{"dram-no-banks", func(c *Config) { c.DRAMBanksPerPart = 0 }, false},
		{"negative-interconnect", func(c *Config) { c.InterconnectLatency = -1 }, false},
		{"negative-fault", func(c *Config) { c.PageFaultLatency = -5000 }, false},
		{"negative-dram", func(c *Config) { c.DRAMLatency = -1 }, false},
		{"negative-dram-row-hit", func(c *Config) { c.DRAMRowHitLatency = -1 }, false},
		{"negative-walk", func(c *Config) { c.WalkLatency = -1 }, false},
		{"negative-tlb-lookup", func(c *Config) { c.L2TLB.LookupLatency = -1 }, false},
		{"negative-cache-hit", func(c *Config) { c.L1Cache.HitLatency = -1 }, false},
		{"zero-latencies", func(c *Config) {
			c.InterconnectLatency, c.PageFaultLatency, c.DRAMLatency, c.DRAMRowHitLatency = 0, 0, 0, 0
		}, true},
		{"noc-service-zero", func(c *Config) { c.NoCServiceCycles = 0 }, false},
		{"noc-service-negative", func(c *Config) { c.NoCServiceCycles = -2 }, false},
		{"one-warp-slot", func(c *Config) { c.MaxWarpsPerSM = 1 }, true}, // one TB per SM
		{"l2-line-below-l1", func(c *Config) { c.L2Cache.LineBytes = 64 }, false},
		{"l2-line-above-l1", func(c *Config) { c.L2Cache.LineBytes = 256 }, true},
		{"l1-line-not-pow2", func(c *Config) { c.L1Cache.LineBytes, c.L1Cache.SizeBytes = 96, 96*4*32 }, false},
		{"clock-zero", func(c *Config) { c.ClockMHz = 0 }, true}, // display only
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mutate(&c)
			err := c.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestEffectiveMaxTBsPerSM(t *testing.T) {
	c := Default()
	if got := c.EffectiveMaxTBsPerSM(); got != 16 {
		t.Errorf("unthrottled = %d, want 16", got)
	}
	c.ThrottleTBsPerSM = 4
	if got := c.EffectiveMaxTBsPerSM(); got != 4 {
		t.Errorf("throttled = %d, want 4", got)
	}
	c.ThrottleTBsPerSM = 99
	if got := c.EffectiveMaxTBsPerSM(); got != 16 {
		t.Errorf("over-throttle = %d, want 16 (cap at hardware limit)", got)
	}
}

func TestPageShift(t *testing.T) {
	c := Default()
	if got := c.PageShift(); got != 12 {
		t.Errorf("4KB shift = %d, want 12", got)
	}
	c.PageSize = PageSize2M
	if got := c.PageShift(); got != 21 {
		t.Errorf("2MB shift = %d, want 21", got)
	}
	if 1<<c.PageShift() != PageSize2M {
		t.Error("2MB shift does not invert page size")
	}
}

func TestPolicyStrings(t *testing.T) {
	if IndexByAddress.String() != "address" ||
		IndexByTB.String() != "tb-partitioned" ||
		IndexByTBShared.String() != "tb-partitioned+sharing" {
		t.Error("TLBIndexPolicy strings wrong")
	}
	if !strings.HasPrefix(TLBIndexPolicy(42).String(), "TLBIndexPolicy(") {
		t.Error("unknown policy should format numerically")
	}
	if ScheduleRoundRobin.String() != "round-robin" || ScheduleTLBAware.String() != "tlb-aware" {
		t.Error("TBSchedulerPolicy strings wrong")
	}
	if ShareAdjacent.String() != "adjacent" || ShareAllToAll.String() != "all-to-all" {
		t.Error("SharingMode strings wrong")
	}
}

func TestConfigStringMentionsKeyParameters(t *testing.T) {
	s := Default().String()
	for _, want := range []string{"16 SMs", "64 entries", "512 entries", "8 walkers", "500-cycle"} {
		if !strings.Contains(s, want) {
			t.Errorf("Config.String() missing %q:\n%s", want, s)
		}
	}
}

// Property: for any valid geometry, Sets()*Assoc == Entries and sets are a
// power of two.
func TestTLBGeometryProperty(t *testing.T) {
	f := func(setsLog2 uint8, assocSel uint8) bool {
		sets := 1 << (setsLog2 % 8) // 1..128 sets
		assoc := []int{1, 2, 4, 8, 16}[assocSel%5]
		cfg := TLBConfig{Entries: sets * assoc, Assoc: assoc, LookupLatency: 1}
		if err := cfg.Validate(); err != nil {
			return false
		}
		return cfg.Sets() == sets && cfg.Sets()*cfg.Assoc == cfg.Entries
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPolicyNamesRoundTrip: every value of every policy enum is written
// in JSON as its String() name and read back to itself.
func TestPolicyNamesRoundTrip(t *testing.T) {
	for _, e := range policyEnums() {
		for v := 0; v < e.n; v++ {
			c := Default()
			e.set(&c, v)
			if err := c.Validate(); err != nil {
				t.Fatalf("%s %d: %v", e.field, v, err)
			}
			data, err := json.Marshal(c)
			if err != nil {
				t.Fatalf("%s %d: %v", e.field, v, err)
			}
			name := e.name(c)
			if !strings.Contains(string(data), fmt.Sprintf("%q:%q", e.field, name)) {
				t.Errorf("%s %d: JSON does not name it %q: %s", e.field, v, name, data)
			}
			var back Config
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("%s %d: %v", e.field, v, err)
			}
			if back != c {
				t.Errorf("%s %d: round trip changed the config", e.field, v)
			}
		}
	}
}

// TestPolicyRejectsUnknown: an unknown name, a bare number and an
// out-of-range value all fail.
func TestPolicyRejectsUnknown(t *testing.T) {
	for _, e := range policyEnums() {
		var c Config
		if err := json.Unmarshal([]byte(fmt.Sprintf(`{%q:"bogus"}`, e.field)), &c); err == nil {
			t.Errorf("%s: unknown name accepted", e.field)
		}
		if err := json.Unmarshal([]byte(fmt.Sprintf(`{%q:1}`, e.field)), &c); err == nil {
			t.Errorf("%s: a number accepted", e.field)
		}
		for _, v := range []int{-1, e.n} {
			c := Default()
			e.set(&c, v)
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s %d: Validate = %v, want out of range", e.field, v, err)
			}
			if _, err := json.Marshal(c); err == nil {
				t.Errorf("%s %d: marshaled an out-of-range value", e.field, v)
			}
		}
	}
}

type policyEnum struct {
	field string
	n     int
	set   func(*Config, int)
	name  func(Config) string
}

func policyEnums() []policyEnum {
	return []policyEnum{
		{"TLBIndexPolicy", 3, func(c *Config, v int) { c.TLBIndexPolicy = TLBIndexPolicy(v) }, func(c Config) string { return c.TLBIndexPolicy.String() }},
		{"SharingMode", 2, func(c *Config, v int) { c.SharingMode = SharingMode(v) }, func(c Config) string { return c.SharingMode.String() }},
		{"TBScheduler", 2, func(c *Config, v int) { c.TBScheduler = TBSchedulerPolicy(v) }, func(c Config) string { return c.TBScheduler.String() }},
		{"WarpScheduler", 3, func(c *Config, v int) { c.WarpScheduler = WarpSchedulerPolicy(v) }, func(c Config) string { return c.WarpScheduler.String() }},
		{"TLBReplacement", 3, func(c *Config, v int) { c.TLBReplacement = TLBReplacementPolicy(v) }, func(c Config) string { return c.TLBReplacement.String() }},
	}
}
