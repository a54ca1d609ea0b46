package workloads

// Tests for the trace cache's LRU bound: eviction order, the eviction
// counter, and the registered observability metrics.

import (
	"sync"
	"testing"

	"gputlb/internal/stats"
)

// resetCache starts a test from an empty cache and leaves one behind.
func resetCache(t *testing.T) {
	t.Helper()
	ClearTraceCache()
	t.Cleanup(ClearTraceCache)
}

// seedParams is a tiny build at the given seed, so each seed is its own
// cache entry.
func seedParams(seed int64) Params {
	p := DefaultParams()
	p.Scale = 0.05
	p.Seed = seed
	return p
}

// fill builds the named benchmark at the given seeds, in order.
func fill(t *testing.T, name string, seeds ...int64) {
	t.Helper()
	spec := testSpec(t, name)
	for _, s := range seeds {
		Cached(spec, seedParams(s))
	}
}

// seedRange returns the seeds from..to inclusive.
func seedRange(from, to int64) []int64 {
	var out []int64
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return out
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	resetCache(t)
	before := TraceCacheEvictions()
	spec := testSpec(t, "atax")

	k1, _ := Cached(spec, seedParams(1))
	fill(t, "atax", seedRange(2, TraceCacheCap)...) // full
	Cached(spec, seedParams(1))                     // touch seed 1: seed 2 is now the LRU entry
	Cached(spec, seedParams(TraceCacheCap+1))       // evicts seed 2
	if got := TraceCacheLen(); got != TraceCacheCap {
		t.Errorf("cache holds %d entries, want %d", got, TraceCacheCap)
	}
	if got := TraceCacheEvictions() - before; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// Seed 1 survived the eviction: asking again shares the same kernel.
	if k, _ := Cached(spec, seedParams(1)); k != k1 {
		t.Error("recently used entry was evicted")
	}
}

func TestCacheRebuildsEvictedEntry(t *testing.T) {
	resetCache(t)
	spec := testSpec(t, "mvt")
	k1, _ := Cached(spec, seedParams(1))
	fill(t, "mvt", seedRange(2, TraceCacheCap+1)...) // evicts seed 1
	k2, _ := Cached(spec, seedParams(1))
	if k1 == k2 {
		t.Error("evicted entry still shared; expected a fresh build")
	}
}

func TestCacheBoundedUnderConcurrency(t *testing.T) {
	resetCache(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spec := testSpec(t, []string{"atax", "mvt"}[w%2])
			// 2 benchmarks x 15 seeds overflow the bound.
			for i := 0; i < 30; i++ {
				k, as := Cached(spec, seedParams(int64(i%15+1)))
				if k == nil || as == nil {
					t.Error("nil build")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := TraceCacheLen(); got > TraceCacheCap {
		t.Errorf("cache exceeded its bound under concurrency: %d entries", got)
	}
}

func TestRegisterCacheStats(t *testing.T) {
	resetCache(t)
	fill(t, "atax", 1, 2)
	r := stats.NewRegistry("test")
	RegisterCacheStats(r.Child("trace_cache"))
	vals := map[string]string{}
	for _, fv := range r.Snapshot().Flatten("") {
		vals[fv.Path] = fv.Value
	}
	if vals["test/trace_cache/entries"] != "2" {
		t.Errorf("entries = %q, want 2 (all: %v)", vals["test/trace_cache/entries"], vals)
	}
	if vals["test/trace_cache/capacity"] != "10" {
		t.Errorf("capacity = %q, want 10", vals["test/trace_cache/capacity"])
	}
	if vals["test/trace_cache/occupancy"] != "0.2" {
		t.Errorf("occupancy = %q, want 0.2", vals["test/trace_cache/occupancy"])
	}
	if _, ok := vals["test/trace_cache/evictions"]; !ok {
		t.Error("evictions metric missing")
	}
}
