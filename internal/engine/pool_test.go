package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestPoolCoversEveryIndex: every index is visited exactly once per Run,
// at every worker count and whatever the item count of the Run.
func TestPoolCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		const items = 16
		var visits [items]atomic.Int64
		p := NewPool(workers)
		fn := func(i int) { visits[i].Add(1) }
		const runs = 50
		for r := 0; r < runs; r++ {
			p.Run(items, fn)
			p.Run(items/2, fn) // a smaller fan-out reuses the same workers
		}
		p.Close()
		for i := range visits {
			want := int64(runs)
			if i < items/2 {
				want *= 2
			}
			if got := visits[i].Load(); got != want {
				t.Errorf("workers=%d: index %d visited %d times, want %d", workers, i, got, want)
			}
		}
	}
}

// TestPoolShardIsolation: per-index state mutated inside fn is identical
// regardless of worker count — the determinism contract the sharded
// engine builds on. Each index folds the epoch limits it saw into a
// little hash; any cross-index interference or missed run changes it.
func TestPoolShardIsolation(t *testing.T) {
	const shards = 11
	run := func(workers int) [shards]uint64 {
		var state [shards]uint64
		var limit Cycle
		p := NewPool(workers)
		defer p.Close()
		step := func(i int) { state[i] = state[i]*1099511628211 + uint64(limit) + uint64(i) }
		for e := 1; e <= 200; e++ {
			limit = Cycle(e * 7)
			p.Run(shards, step)
		}
		return state
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8, runtime.GOMAXPROCS(0)} {
		if got := run(workers); got != want {
			t.Errorf("shard state diverged at %d workers", workers)
		}
	}
}

// TestPoolSerialPathNoAlloc: worker counts below 2 spawn no goroutines
// and a Run with a prebuilt fn allocates nothing.
func TestPoolSerialPathNoAlloc(t *testing.T) {
	n := 0
	p := NewPool(1)
	defer p.Close()
	fn := func(int) { n++ }
	allocs := testing.AllocsPerRun(100, func() { p.Run(4, fn) })
	if allocs != 0 {
		t.Errorf("serial Run allocated %.1f times, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("fn never ran")
	}
}

// TestPoolParallelPathNoAlloc: the pooled path reuses its channels; a
// steady-state Run with a prebuilt fn allocates nothing.
func TestPoolParallelPathNoAlloc(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	fn := func(int) {}
	p.Run(8, fn) // warm the pool
	allocs := testing.AllocsPerRun(100, func() { p.Run(8, fn) })
	// Channel ops don't allocate; tolerate scheduler noise of a fraction of
	// an alloc per run.
	if allocs > 0.5 {
		t.Errorf("pooled Run allocated %.2f times per call, want ~0", allocs)
	}
}

// TestPoolWorkerCap: more workers than items must still cover every item
// exactly once (a Run kicks at most one worker per item).
func TestPoolWorkerCap(t *testing.T) {
	var visits [3]atomic.Int64
	p := NewPool(16)
	p.Run(3, func(i int) { visits[i].Add(1) })
	p.Close()
	for i := range visits {
		if got := visits[i].Load(); got != 1 {
			t.Errorf("index %d visited %d times, want 1", i, got)
		}
	}
}

// TestPoolCloseIdempotent: Close twice is safe, including on the serial
// path.
func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(4)
	p.Run(2, func(int) {})
	p.Close()
	p.Close()
	s := NewPool(1)
	s.Close()
	s.Close()
}
