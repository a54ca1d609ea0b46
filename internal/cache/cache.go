package cache

import (
	"gputlb/internal/arch"
	"gputlb/internal/fastdiv"
	"gputlb/internal/stats"
)

// LineAddr identifies a cache line (byte address >> line shift).
type LineAddr uint64

// invalidTag marks an empty way. Real line addresses are byte addresses
// shifted right by the line size, so the all-ones pattern can never occur.
const invalidTag = ^LineAddr(0)

// Stats counts cache activity.
type Stats struct {
	Accesses  int64
	Hits      int64
	Misses    int64
	Evictions int64
}

// HitRate returns Hits/Accesses (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is one cache level. Not safe for concurrent use.
//
// The cache holds tags only, in one flat array: each set's ways form a
// contiguous run kept in most-recently-used order, so a probe scans one
// run of words (the 8-way L2 set is one host cache line) and the LRU way
// is always the last. A hit moves its tag to the front; a miss shifts the
// run back one way and puts the new line at the front, so the LRU line
// falls off the end and empty ways stay at the tail. That evicts exactly
// the line an LRU stamp per way would, without a stamp to store or write.
type Cache struct {
	assoc int
	sets  fastdiv.Divisor
	tags  []LineAddr // nsets*assoc, each set's ways in MRU order; invalidTag marks an empty way
	stats Stats
}

// New builds a cache from a validated config.
func New(cfg arch.CacheConfig) *Cache {
	n := cfg.Sets()
	c := &Cache{
		assoc: cfg.Assoc,
		sets:  fastdiv.New(uint64(n)),
		tags:  make([]LineAddr, n*cfg.Assoc),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// RegisterStats registers the cache's counters and rates into r; values are
// read lazily at snapshot time.
func (c *Cache) RegisterStats(r *stats.Registry) {
	r.CounterFunc("accesses", func() int64 { return c.stats.Accesses })
	r.CounterFunc("hits", func() int64 { return c.stats.Hits })
	r.CounterFunc("misses", func() int64 { return c.stats.Misses })
	r.CounterFunc("evictions", func() int64 { return c.stats.Evictions })
	r.GaugeFunc("hit_rate", func() float64 { return c.stats.HitRate() })
	r.GaugeFunc("occupancy", func() float64 { return float64(c.Occupancy()) })
}

// AddStats folds externally accumulated counters (an address slice's
// sub-cache) into this cache's stats so one registered stats node reports
// the combined activity.
func (c *Cache) AddStats(s Stats) {
	c.stats.Accesses += s.Accesses
	c.stats.Hits += s.Hits
	c.stats.Misses += s.Misses
	c.stats.Evictions += s.Evictions
}

// setOf maps a line to its set. Set counts need not be powers of two (the
// 1536KB L2 has 1536 sets), so this is a modulo, by a precomputed divisor.
func (c *Cache) setOf(addr LineAddr) int { return int(c.sets.Mod(uint64(addr))) }

// Access looks up the line, allocating it on a miss (evicting LRU if the set
// is full). It reports whether the access hit.
func (c *Cache) Access(addr LineAddr) bool {
	c.stats.Accesses++
	base := c.setOf(addr) * c.assoc
	tags := c.tags[base : base+c.assoc]
	for w, tg := range tags {
		if tg == addr {
			for ; w > 0; w-- {
				tags[w] = tags[w-1]
			}
			tags[0] = addr
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	last := len(tags) - 1
	if tags[last] != invalidTag {
		c.stats.Evictions++
	}
	for w := last; w > 0; w-- {
		tags[w] = tags[w-1]
	}
	tags[0] = addr
	return false
}

// Contains reports presence without disturbing LRU or stats.
func (c *Cache) Contains(addr LineAddr) bool {
	base := c.setOf(addr) * c.assoc
	for _, tg := range c.tags[base : base+c.assoc] {
		if tg == addr {
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, tg := range c.tags {
		if tg != invalidTag {
			n++
		}
	}
	return n
}
