package arch

import (
	"errors"
	"fmt"
	"strings"
)

// Page sizes supported by the UVM substrate.
const (
	PageSize4K = 1 << 12 // 4KB base pages
	PageSize2M = 1 << 21 // 2MB huge pages
)

// WarpSize is the number of threads that execute in lock-step.
const WarpSize = 32

// TLBIndexPolicy selects how the L1 TLB maps a translation to a set.
type TLBIndexPolicy int

const (
	// IndexByAddress is the conventional design: low VPN bits select the set.
	IndexByAddress TLBIndexPolicy = iota
	// IndexByTB partitions the sets among the hardware TB ids resident on
	// the SM (paper Section IV-B, Figure 8).
	IndexByTB
	// IndexByTBShared is IndexByTB plus dynamic adjacent-set sharing driven
	// by the 16-bit sharing-flag register (paper Figure 9).
	IndexByTBShared
)

var tlbIndexNames = []string{"address", "tb-partitioned", "tb-partitioned+sharing"}

// String implements fmt.Stringer.
func (p TLBIndexPolicy) String() string { return enumString(tlbIndexNames, "TLBIndexPolicy", int(p)) }

// MarshalText implements encoding.TextMarshaler: the policy's name.
func (p TLBIndexPolicy) MarshalText() ([]byte, error) {
	return enumMarshal(tlbIndexNames, "TLBIndexPolicy", int(p))
}

// UnmarshalText implements encoding.TextUnmarshaler, reading a name.
func (p *TLBIndexPolicy) UnmarshalText(b []byte) error {
	return enumUnmarshal(tlbIndexNames, "TLBIndexPolicy", b, (*int)(p))
}

// SharingMode selects which neighbours a TB may spill translations to when
// running under IndexByTBShared.
type SharingMode int

const (
	// ShareAdjacent spills only into the next TB's sets (paper default).
	ShareAdjacent SharingMode = iota
	// ShareAllToAll may spill into any TB's sets (ablation; paper §IV-B
	// discusses and rejects it for bookkeeping cost).
	ShareAllToAll
)

var sharingNames = []string{"adjacent", "all-to-all"}

// String implements fmt.Stringer.
func (m SharingMode) String() string { return enumString(sharingNames, "SharingMode", int(m)) }

// MarshalText implements encoding.TextMarshaler: the mode's name.
func (m SharingMode) MarshalText() ([]byte, error) {
	return enumMarshal(sharingNames, "SharingMode", int(m))
}

// UnmarshalText implements encoding.TextUnmarshaler, reading a name.
func (m *SharingMode) UnmarshalText(b []byte) error {
	return enumUnmarshal(sharingNames, "SharingMode", b, (*int)(m))
}

// TBSchedulerPolicy selects how thread blocks are dispatched to SMs.
type TBSchedulerPolicy int

const (
	// ScheduleRoundRobin is the baseline GPU TB scheduler.
	ScheduleRoundRobin TBSchedulerPolicy = iota
	// ScheduleTLBAware is the thrashing-aware scheduler of paper §IV-A:
	// prefer SMs with low instantaneous L1 TLB miss rates.
	ScheduleTLBAware
)

var tbSchedulerNames = []string{"round-robin", "tlb-aware"}

// String implements fmt.Stringer.
func (p TBSchedulerPolicy) String() string {
	return enumString(tbSchedulerNames, "TBSchedulerPolicy", int(p))
}

// MarshalText implements encoding.TextMarshaler: the policy's name.
func (p TBSchedulerPolicy) MarshalText() ([]byte, error) {
	return enumMarshal(tbSchedulerNames, "TBSchedulerPolicy", int(p))
}

// UnmarshalText implements encoding.TextUnmarshaler, reading a name.
func (p *TBSchedulerPolicy) UnmarshalText(b []byte) error {
	return enumUnmarshal(tbSchedulerNames, "TBSchedulerPolicy", b, (*int)(p))
}

// WarpSchedulerPolicy selects how an SM picks among ready warps.
type WarpSchedulerPolicy int

const (
	// WarpGTO is greedy-then-oldest: the last-issued warp keeps priority,
	// then the oldest ready warp (the Table III baseline).
	WarpGTO WarpSchedulerPolicy = iota
	// WarpLRR is loose round-robin over ready warps.
	WarpLRR
	// WarpTransAware is the translation reuse-aware warp scheduler the
	// paper's conclusion proposes as future work: among ready warps,
	// prefer one whose next memory access translates from the L1 TLB.
	WarpTransAware
)

var warpSchedulerNames = []string{"gto", "lrr", "translation-aware"}

// String implements fmt.Stringer.
func (p WarpSchedulerPolicy) String() string {
	return enumString(warpSchedulerNames, "WarpSchedulerPolicy", int(p))
}

// MarshalText implements encoding.TextMarshaler: the policy's name.
func (p WarpSchedulerPolicy) MarshalText() ([]byte, error) {
	return enumMarshal(warpSchedulerNames, "WarpSchedulerPolicy", int(p))
}

// UnmarshalText implements encoding.TextUnmarshaler, reading a name.
func (p *WarpSchedulerPolicy) UnmarshalText(b []byte) error {
	return enumUnmarshal(warpSchedulerNames, "WarpSchedulerPolicy", b, (*int)(p))
}

// TLBReplacementPolicy selects the TLB victim-selection policy.
type TLBReplacementPolicy int

const (
	// ReplaceLRU is true least-recently-used (the default).
	ReplaceLRU TLBReplacementPolicy = iota
	// ReplaceFIFO evicts the oldest-inserted entry regardless of use.
	ReplaceFIFO
	// ReplaceRandom evicts a deterministic pseudo-random way.
	ReplaceRandom
)

var replacementNames = []string{"lru", "fifo", "random"}

// String implements fmt.Stringer.
func (p TLBReplacementPolicy) String() string {
	return enumString(replacementNames, "TLBReplacementPolicy", int(p))
}

// MarshalText implements encoding.TextMarshaler: the policy's name.
func (p TLBReplacementPolicy) MarshalText() ([]byte, error) {
	return enumMarshal(replacementNames, "TLBReplacementPolicy", int(p))
}

// UnmarshalText implements encoding.TextUnmarshaler, reading a name.
func (p *TLBReplacementPolicy) UnmarshalText(b []byte) error {
	return enumUnmarshal(replacementNames, "TLBReplacementPolicy", b, (*int)(p))
}

// The policy enums are written by name in JSON (gputlbsim -printconfig
// and -config): names[v] is value v's name.

func enumString(names []string, typ string, v int) string {
	if v >= 0 && v < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", typ, v)
}

// enumCheck reports a value outside names.
func enumCheck(names []string, typ string, v int) error {
	if v < 0 || v >= len(names) {
		return fmt.Errorf("arch: %s %d out of range (%d values: %s)", typ, v, len(names), strings.Join(names, ", "))
	}
	return nil
}

func enumMarshal(names []string, typ string, v int) ([]byte, error) {
	if err := enumCheck(names, typ, v); err != nil {
		return nil, err
	}
	return []byte(names[v]), nil
}

func enumUnmarshal(names []string, typ string, b []byte, v *int) error {
	for i, n := range names {
		if n == string(b) {
			*v = i
			return nil
		}
	}
	return fmt.Errorf("arch: unknown %s %q (want one of: %s)", typ, b, strings.Join(names, ", "))
}

// TLBConfig describes one TLB level.
type TLBConfig struct {
	Entries       int // total entries
	Assoc         int // ways per set
	LookupLatency int // cycles for a single-set probe
}

// Sets returns the number of sets.
func (c TLBConfig) Sets() int { return c.Entries / c.Assoc }

// Validate checks geometric consistency.
func (c TLBConfig) Validate() error {
	switch {
	case c.Entries <= 0:
		return errors.New("arch: TLB entries must be positive")
	case c.Assoc <= 0:
		return errors.New("arch: TLB associativity must be positive")
	case c.Entries%c.Assoc != 0:
		return fmt.Errorf("arch: TLB entries %d not divisible by associativity %d", c.Entries, c.Assoc)
	case c.LookupLatency < 0:
		return errors.New("arch: TLB lookup latency must be non-negative")
	}
	sets := c.Entries / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("arch: TLB set count %d must be a power of two", sets)
	}
	return nil
}

// CacheConfig describes one data-cache level. Every level moves lines of
// the L1 cache's LineBytes; a lower level's own LineBytes only sets how
// many of those lines it holds (SizeBytes / LineBytes), so it may not be
// shorter than the L1 line (Config.Validate).
type CacheConfig struct {
	SizeBytes  int
	LineBytes  int // a power of two
	Assoc      int
	HitLatency int // cycles from issue to data for a hit at this level
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Validate checks geometric consistency.
func (c CacheConfig) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0:
		return errors.New("arch: cache size, line size and associativity must be positive")
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("arch: cache line size %dB must be a power of two", c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("arch: cache size %dB not divisible by %dB ways", c.SizeBytes, c.LineBytes*c.Assoc)
	case c.HitLatency < 0:
		return errors.New("arch: cache hit latency must be non-negative")
	}
	return nil
}

// Config is the full machine description.
type Config struct {
	// GPU geometry.
	NumSMs      int
	ClockMHz    int // reported by String only: the simulator counts cycles
	MaxThreads  int // per SM
	MaxTBsPerSM int // hardware TB slots (Kepler-era limit of 16)
	// MaxWarpsPerSM bounds a kernel's TBs per SM by warp slots, like the
	// thread, register and shared-memory bounds; an SM always runs at
	// least one TB, even one with more warps than this.
	MaxWarpsPerSM int
	IssueWidth    int // warps issued per SM per cycle (dual GTO scheduler)

	// Per-SM resources consumed by TBs.
	SharedMemPerSM int // bytes
	RegistersPerSM int // 32-bit registers

	// Translation hierarchy.
	L1TLB            TLBConfig
	L2TLB            TLBConfig
	NumWalkers       int
	WalkLatency      int // cycles for a full page-table walk
	PageSize         int // PageSize4K or PageSize2M
	PageFaultLatency int // UVM first-touch demand-paging fault, cycles

	// Data caches and memory.
	L1Cache             CacheConfig
	L2Cache             CacheConfig
	MemPartitions       int
	InterconnectLatency int // SM <-> partition one-way traversal, cycles
	NoCServiceCycles    int // crossbar port occupancy per request, >= 1
	DRAMLatency         int // row-miss (precharge+activate+column), cycles
	DRAMRowHitLatency   int // open-row column access, cycles
	DRAMBanksPerPart    int
	DRAMRowBytes        int // row-buffer size, at least one L1 cache line

	// Policies under study.
	TLBIndexPolicy TLBIndexPolicy
	SharingMode    SharingMode
	TBScheduler    TBSchedulerPolicy
	// ShareCounterThreshold, when > 0, replaces the 1-bit sharing flag with
	// a saturating counter that must reach the threshold before sharing
	// activates (paper future-work ablation). 0 means the 1-bit flag.
	ShareCounterThreshold int
	// ThrottleTBsPerSM, when > 0, caps concurrent TBs per SM below the
	// resource limit (paper §IV-A extension note).
	ThrottleTBsPerSM int
	// TBDispatchPeriod is how often (cycles) the TB scheduler runs after
	// launch. Freed slots accumulate between runs, which is when the
	// TLB-aware policy has real placement choices.
	TBDispatchPeriod int
	// TranslationMSHRs is the number of outstanding L1 TLB misses one SM
	// can sustain; further misses queue behind them.
	TranslationMSHRs int
	// WarpScheduler selects the per-SM warp scheduling policy.
	WarpScheduler WarpSchedulerPolicy
	// PWCEntries enables a shared page-walk cache holding that many
	// last-level page-table pointers (covering 2MB regions); a PWC hit
	// skips the upper levels of the walk. 0 disables it (Table III has
	// none).
	PWCEntries int
	// TLBReplacement selects the replacement policy of both TLB levels.
	TLBReplacement TLBReplacementPolicy
	// L2TLBPorts is the number of independent L2 TLB banks (the L2 TLB is
	// distributed across the memory partitions); probes to one bank
	// serialize.
	L2TLBPorts int
	// TLBMech names the pluggable translation mechanism both TLB levels
	// run ("" or "base" for the baseline entry format; "subentry",
	// "deadblock", "largereach", or "compressed", the PACT'20 comparator
	// of Figure 12). Parsed and validated by the simulator against
	// tlbmech's registry.
	TLBMech string
	// AllocMode names the UVM frame-allocation policy ("" or "firsttouch"
	// for fault-order bump allocation; "contig" for the
	// contiguity-preserving positional allocator that feeds the largereach
	// mechanism). Parsed by the simulator via vm.ParseAllocMode.
	AllocMode string
}

// Default returns the Table III baseline configuration.
func Default() Config {
	return Config{
		NumSMs:        16,
		ClockMHz:      1400,
		MaxThreads:    2048,
		MaxTBsPerSM:   16,
		MaxWarpsPerSM: 64,
		IssueWidth:    2,

		SharedMemPerSM: 48 << 10,
		RegistersPerSM: (64 << 10) / 4,

		L1TLB:            TLBConfig{Entries: 64, Assoc: 4, LookupLatency: 1},
		L2TLB:            TLBConfig{Entries: 512, Assoc: 16, LookupLatency: 10},
		NumWalkers:       8,
		WalkLatency:      500,
		PageSize:         PageSize4K,
		PageFaultLatency: 5000,

		L1Cache:             CacheConfig{SizeBytes: 16 << 10, LineBytes: 128, Assoc: 4, HitLatency: 28},
		L2Cache:             CacheConfig{SizeBytes: 1536 << 10, LineBytes: 128, Assoc: 8, HitLatency: 120},
		MemPartitions:       12,
		InterconnectLatency: 20,
		NoCServiceCycles:    1,
		DRAMLatency:         220,
		DRAMRowHitLatency:   120,
		DRAMBanksPerPart:    8,
		DRAMRowBytes:        2048,

		TLBIndexPolicy:   IndexByAddress,
		SharingMode:      ShareAdjacent,
		TBScheduler:      ScheduleRoundRobin,
		TBDispatchPeriod: 64,
		TranslationMSHRs: 16,
		L2TLBPorts:       4,
	}
}

// Validate checks the whole configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return errors.New("arch: NumSMs must be positive")
	case c.MaxThreads < WarpSize:
		return fmt.Errorf("arch: MaxThreads %d below warp size", c.MaxThreads)
	case c.MaxTBsPerSM <= 0:
		return errors.New("arch: MaxTBsPerSM must be positive")
	case c.MaxWarpsPerSM <= 0:
		return errors.New("arch: MaxWarpsPerSM must be positive")
	case c.IssueWidth <= 0:
		return errors.New("arch: IssueWidth must be positive")
	case c.NumWalkers <= 0:
		return errors.New("arch: NumWalkers must be positive")
	case c.WalkLatency <= 0:
		return errors.New("arch: WalkLatency must be positive")
	case c.PageSize != PageSize4K && c.PageSize != PageSize2M:
		return fmt.Errorf("arch: unsupported page size %d", c.PageSize)
	case c.MemPartitions <= 0:
		return errors.New("arch: MemPartitions must be positive")
	case c.ThrottleTBsPerSM < 0:
		return errors.New("arch: ThrottleTBsPerSM must be non-negative")
	case c.ShareCounterThreshold < 0:
		return errors.New("arch: ShareCounterThreshold must be non-negative")
	case c.TBDispatchPeriod <= 0:
		return errors.New("arch: TBDispatchPeriod must be positive")
	case c.TranslationMSHRs <= 0:
		return errors.New("arch: TranslationMSHRs must be positive")
	case c.L2TLBPorts <= 0:
		return errors.New("arch: L2TLBPorts must be positive")
	case c.PWCEntries < 0:
		return errors.New("arch: PWCEntries must be non-negative")
	case c.PageFaultLatency < 0:
		return errors.New("arch: PageFaultLatency must be non-negative")
	case c.InterconnectLatency < 0:
		return errors.New("arch: InterconnectLatency must be non-negative")
	case c.DRAMLatency < 0 || c.DRAMRowHitLatency < 0:
		return errors.New("arch: DRAMLatency and DRAMRowHitLatency must be non-negative")
	case c.NoCServiceCycles < 1:
		return errors.New("arch: NoCServiceCycles must be at least 1")
	case c.DRAMBanksPerPart <= 0:
		return errors.New("arch: DRAMBanksPerPart must be positive")
	}
	for _, e := range []struct {
		names []string
		typ   string
		v     int
	}{
		{tlbIndexNames, "TLBIndexPolicy", int(c.TLBIndexPolicy)},
		{sharingNames, "SharingMode", int(c.SharingMode)},
		{tbSchedulerNames, "TBSchedulerPolicy", int(c.TBScheduler)},
		{warpSchedulerNames, "WarpSchedulerPolicy", int(c.WarpScheduler)},
		{replacementNames, "TLBReplacementPolicy", int(c.TLBReplacement)},
	} {
		if err := enumCheck(e.names, e.typ, e.v); err != nil {
			return err
		}
	}
	if err := c.L1TLB.Validate(); err != nil {
		return fmt.Errorf("L1 TLB: %w", err)
	}
	if err := c.L2TLB.Validate(); err != nil {
		return fmt.Errorf("L2 TLB: %w", err)
	}
	if err := c.L1Cache.Validate(); err != nil {
		return fmt.Errorf("L1 cache: %w", err)
	}
	if err := c.L2Cache.Validate(); err != nil {
		return fmt.Errorf("L2 cache: %w", err)
	}
	switch line := c.L1Cache.LineBytes; {
	case c.L2Cache.LineBytes < line:
		return fmt.Errorf("arch: L2 cache line %dB shorter than the L1 line %dB", c.L2Cache.LineBytes, line)
	case c.DRAMRowBytes < line:
		return fmt.Errorf("arch: DRAMRowBytes %d shorter than the L1 cache line %dB", c.DRAMRowBytes, line)
	}
	return nil
}

// EffectiveMaxTBsPerSM returns the concurrent-TB cap after throttling.
func (c Config) EffectiveMaxTBsPerSM() int {
	if c.ThrottleTBsPerSM > 0 && c.ThrottleTBsPerSM < c.MaxTBsPerSM {
		return c.ThrottleTBsPerSM
	}
	return c.MaxTBsPerSM
}

// PageShift returns log2(PageSize).
func (c Config) PageShift() uint {
	if c.PageSize == PageSize2M {
		return 21
	}
	return 12
}

// String summarizes the configuration in a Table III-like block.
func (c Config) String() string {
	return fmt.Sprintf(
		"GPU: %d SMs @ %dMHz, %d threads/SM, %d TB slots/SM, %d warps/SM, issue %d\n"+
			"L1 TLB: %d entries %d-way (%d sets), %d-cycle lookup, policy=%s sharing=%s\n"+
			"L2 TLB: %d entries %d-way, %d-cycle lookup, shared\n"+
			"PTW: %d walkers, %d-cycle walks, %dB pages, %d-cycle UVM fault\n"+
			"L1$: %dKB %d-way %dB lines; L2$: %dKB %d-way, %d partitions\n"+
			"TB scheduler: %s",
		c.NumSMs, c.ClockMHz, c.MaxThreads, c.MaxTBsPerSM, c.MaxWarpsPerSM, c.IssueWidth,
		c.L1TLB.Entries, c.L1TLB.Assoc, c.L1TLB.Sets(), c.L1TLB.LookupLatency, c.TLBIndexPolicy, c.SharingMode,
		c.L2TLB.Entries, c.L2TLB.Assoc, c.L2TLB.LookupLatency,
		c.NumWalkers, c.WalkLatency, c.PageSize, c.PageFaultLatency,
		c.L1Cache.SizeBytes>>10, c.L1Cache.Assoc, c.L1Cache.LineBytes,
		c.L2Cache.SizeBytes>>10, c.L2Cache.Assoc, c.MemPartitions,
		c.TBScheduler)
}
