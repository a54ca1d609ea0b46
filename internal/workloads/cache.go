package workloads

import (
	"container/list"
	"sync"
	"sync/atomic"

	"gputlb/internal/stats"
	"gputlb/internal/trace"
	"gputlb/internal/vm"
)

// This file is the process-wide trace cache: every (benchmark, Params) pair
// is built exactly once and the resulting kernel trace is shared, read-only,
// by every simulation cell that needs it. A sweep like the Figure 10/11
// evaluation simulates each workload under four configurations; without the
// cache it regenerates the identical trace four times. Kernel traces are
// immutable once built (the simulator only reads them), so the cached kernel
// is handed out as-is. Address spaces are mutated by simulation (demand
// paging), so each caller gets a fresh vm.AddressSpace fork of the builder's
// pristine allocation layout instead.
//
// The cache is bounded: it holds at most TraceCacheCap builds and evicts the
// least recently used one past that, so a long-lived daemon sweeping many
// (benchmark, scale, seed) points — the multi-tenant interference grid alone
// crosses every benchmark pair — cannot grow it without limit. Entries are
// built outside the lock (a per-entry sync.Once), so an eviction can race a
// slow first build; the evicted entry still finishes and serves its caller,
// the cache just forgets it.

// TraceCacheCap is the cache bound: the full ten-benchmark suite at one
// point. No sweep needs more than ten entries live together; a daemon's
// fresh jobs carry unique seeds, and a repeated cell is a result-cache hit
// that never reaches a worker, so a larger bound only keeps traces nobody
// reuses in memory — in every worker process, since each runs jobs. A
// study that revisits a suite point after another (the huge-page study's
// 4 KB runs after its 2 MB ones) rebuilds those traces.
const TraceCacheCap = 10

// cacheKey identifies one build. Params is a comparable struct of scalars,
// so the pair is directly usable as a map key.
type cacheKey struct {
	name   string
	params Params
}

// cacheEntry holds one built workload. once guards the build so concurrent
// sweep workers asking for the same key build it a single time; kernel and
// proto are written inside the once and read-only afterwards.
type cacheEntry struct {
	key    cacheKey
	once   sync.Once
	kernel *trace.Kernel
	proto  *vm.AddressSpace
}

// traceCache is the bounded LRU state: entries indexes the recency list,
// whose front is the most recently used build. evictions survives
// ClearTraceCache — it counts capacity evictions only, which is what the
// occupancy metrics report.
var (
	cacheMu      sync.Mutex
	cacheEntries = map[cacheKey]*list.Element{}
	cacheOrder   = list.New()
	evictions    atomic.Int64
)

// Cached returns the kernel trace for (spec, p), building it on first use
// and sharing the immutable result across all callers, plus a fresh address
// space for this caller to simulate in. The kernel must be treated as
// read-only; the address space is the caller's own.
func Cached(spec Spec, p Params) (*trace.Kernel, *vm.AddressSpace) {
	key := cacheKey{spec.Name, p}
	cacheMu.Lock()
	el, ok := cacheEntries[key]
	if ok {
		cacheOrder.MoveToFront(el)
	} else {
		el = cacheOrder.PushFront(&cacheEntry{key: key})
		cacheEntries[key] = el
		if len(cacheEntries) > TraceCacheCap {
			evictLockedLRU()
		}
	}
	e := el.Value.(*cacheEntry)
	cacheMu.Unlock()
	e.once.Do(func() {
		e.kernel, e.proto = spec.Build(p)
	})
	return e.kernel, e.proto.Fork()
}

// evictLockedLRU drops the least recently used entry. Caller holds cacheMu
// and guarantees the cache is non-empty.
func evictLockedLRU() {
	oldest := cacheOrder.Back()
	cacheOrder.Remove(oldest)
	delete(cacheEntries, oldest.Value.(*cacheEntry).key)
	evictions.Add(1)
}

// CachedByName is Cached keyed by benchmark name.
func CachedByName(name string, p Params) (*trace.Kernel, *vm.AddressSpace, bool) {
	spec, ok := ByName(name)
	if !ok {
		return nil, nil, false
	}
	k, as := Cached(spec, p)
	return k, as, true
}

// ClearTraceCache drops every cached build (without counting evictions).
// Benchmarks use it to charge first-build cost to each measurement.
func ClearTraceCache() {
	cacheMu.Lock()
	cacheEntries = map[cacheKey]*list.Element{}
	cacheOrder.Init()
	cacheMu.Unlock()
}

// TraceCacheLen reports how many builds are currently cached.
func TraceCacheLen() int {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return len(cacheEntries)
}

// TraceCacheEvictions reports how many builds capacity pressure has evicted
// over the process lifetime.
func TraceCacheEvictions() int64 {
	return evictions.Load()
}

// RegisterCacheStats registers the cache's observability metrics on r:
// entry count, capacity, lifetime evictions, and an occupancy gauge
// (entries/capacity). Long-lived daemons surface these through their
// metrics endpoint. Register at most once per registry.
func RegisterCacheStats(r *stats.Registry) {
	r.CounterFunc("entries", func() int64 { return int64(TraceCacheLen()) })
	r.CounterFunc("capacity", func() int64 { return TraceCacheCap })
	r.CounterFunc("evictions", TraceCacheEvictions)
	r.GaugeFunc("occupancy", func() float64 {
		return float64(TraceCacheLen()) / TraceCacheCap
	})
}
