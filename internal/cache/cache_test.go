package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gputlb/internal/arch"
)

func small() *Cache {
	return New(arch.CacheConfig{SizeBytes: 2048, LineBytes: 128, Assoc: 4, HitLatency: 28}) // 4 sets
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Access(10) {
		t.Error("cold access hit")
	}
	if !c.Access(10) {
		t.Error("warm access missed")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", s.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 sets, 4 ways; lines ≡ 0 mod 4 share set 0
	for i := 0; i < 4; i++ {
		c.Access(LineAddr(4 * i))
	}
	c.Access(0)  // make line 0 MRU
	c.Access(16) // evicts LRU = line 4
	if c.Contains(4) {
		t.Error("LRU victim still present")
	}
	for _, want := range []LineAddr{0, 8, 12, 16} {
		if !c.Contains(want) {
			t.Errorf("line %d missing", want)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// 1536KB L2 shape: 1536 sets. Distinct lines must spread without panics.
	c := New(arch.CacheConfig{SizeBytes: 1536 << 10, LineBytes: 128, Assoc: 8, HitLatency: 120})
	for i := 0; i < 5000; i++ {
		c.Access(LineAddr(i))
	}
	if got := c.Occupancy(); got != 5000 {
		t.Errorf("occupancy = %d, want 5000 (capacity 12288)", got)
	}
	for i := 0; i < 5000; i++ {
		if !c.Access(LineAddr(i)) {
			t.Fatalf("line %d evicted below capacity", i)
		}
	}
}

// Property: the cache tracks a bounded-capacity set model — after any access
// sequence, every line reported by Contains was accessed at some point, and
// occupancy never exceeds capacity.
func TestCacheBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := small()
		touched := make(map[LineAddr]bool)
		for i := 0; i < 600; i++ {
			a := LineAddr(rng.Intn(64))
			c.Access(a)
			touched[a] = true
		}
		if c.Occupancy() > 16 {
			return false
		}
		for a := LineAddr(0); a < 64; a++ {
			if c.Contains(a) && !touched[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a working set no larger than one set's ways never misses after
// the cold pass, regardless of access order (true LRU has no pathologies
// within capacity).
func TestLRUWithinCapacityProperty(t *testing.T) {
	f := func(order []uint8) bool {
		c := small()
		lines := []LineAddr{0, 4, 8, 12} // all in set 0, exactly 4 ways
		for _, l := range lines {
			c.Access(l)
		}
		for _, o := range order {
			if !c.Access(lines[int(o)%len(lines)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// stampCache is the cache as it was before ways were kept in MRU order:
// one LRU stamp per way from a clock ticked on every access, the victim
// the first empty way or else the way with the oldest stamp. It is the
// oracle Cache must match access for access.
type stampCache struct {
	nsets, assoc int
	tags         []LineAddr
	stamps       []uint64
	clock        uint64
	evictions    int64
}

func newStampCache(cfg arch.CacheConfig) *stampCache {
	n := cfg.Sets()
	c := &stampCache{nsets: n, assoc: cfg.Assoc, tags: make([]LineAddr, n*cfg.Assoc), stamps: make([]uint64, n*cfg.Assoc)}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

func (c *stampCache) access(addr LineAddr) bool {
	c.clock++
	base := int(addr%LineAddr(c.nsets)) * c.assoc
	tags := c.tags[base : base+c.assoc]
	for w := range tags {
		if tags[w] == addr {
			c.stamps[base+w] = c.clock
			return true
		}
	}
	victim := 0
	best := ^uint64(0)
	for w := range tags {
		if tags[w] == invalidTag {
			victim = w
			best = 0
			break
		}
		if s := c.stamps[base+w]; s < best {
			best = s
			victim = w
		}
	}
	if best != 0 {
		c.evictions++
	}
	c.tags[base+victim] = addr
	c.stamps[base+victim] = c.clock
	return false
}

func (c *stampCache) contains(addr LineAddr) bool {
	base := int(addr%LineAddr(c.nsets)) * c.assoc
	for _, tg := range c.tags[base : base+c.assoc] {
		if tg == addr {
			return true
		}
	}
	return false
}

// TestAccessMatchesStampLRU: on one set, 32 sets and the L2's 1536 sets,
// random line traces crowded onto a few sets (small lines and lines at or
// above 2^32 alike) hit, miss and evict exactly as the stamp LRU does, and
// Contains agrees with it on every line of the trace's pool.
func TestAccessMatchesStampLRU(t *testing.T) {
	for _, cfg := range []arch.CacheConfig{
		{SizeBytes: 16 * 128, LineBytes: 128, Assoc: 16},        // 1 set
		{SizeBytes: 128, LineBytes: 128, Assoc: 1},              // 1 set, 1 way
		{SizeBytes: 16 << 10, LineBytes: 128, Assoc: 4},         // 32 sets, the L1
		{SizeBytes: 1536 << 10, LineBytes: 128, Assoc: 8},       // 1536 sets, the L2
		{SizeBytes: (1536 << 10) / 4, LineBytes: 128, Assoc: 8}, // a quarter slice of it
	} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			nsets := uint64(cfg.Sets())
			hot := min(int(nsets), 6)
			var pool []LineAddr
			for h := 0; h < hot; h++ {
				set := uint64(rng.Int63n(int64(nsets)))
				for range 3 * cfg.Assoc {
					m := uint64(rng.Intn(64))
					if rng.Intn(2) == 0 {
						m = uint64(rng.Int63n(1<<40)) + 1<<32 // line far above 2^32
					}
					pool = append(pool, LineAddr(set+m*nsets))
				}
			}
			c, o := New(cfg), newStampCache(cfg)
			for i := 0; i < 20000; i++ {
				// Skew toward the pool's front so some lines stay hot.
				addr := pool[rng.Intn(1+rng.Intn(len(pool)))]
				if got, want := c.Access(addr), o.access(addr); got != want {
					t.Fatalf("%d sets, seed %d, access %d of line %#x: hit %v, stamp LRU %v", nsets, seed, i, addr, got, want)
				}
				if c.Stats().Evictions != o.evictions {
					t.Fatalf("%d sets, seed %d, access %d: %d evictions, stamp LRU %d", nsets, seed, i, c.Stats().Evictions, o.evictions)
				}
				if i%61 == 0 {
					for _, l := range pool {
						if c.Contains(l) != o.contains(l) {
							t.Fatalf("%d sets, seed %d, access %d: Contains(%#x) = %v, stamp LRU %v", nsets, seed, i, l, c.Contains(l), o.contains(l))
						}
					}
				}
			}
			if c.Stats().Evictions == 0 {
				t.Errorf("%d sets, seed %d: no evictions, the trace never filled a set", nsets, seed)
			}
		}
	}
}
