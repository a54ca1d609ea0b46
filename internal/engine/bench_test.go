package engine

import (
	"math/rand"
	"runtime"
	"testing"
)

// queueDeltas returns n schedule offsets drawn from the simulator's
// measured mix on the Figure 10/11 sweep: 42% one cycle ahead (SM ticks),
// 55.8% elsewhere inside the calendar window, skewed toward short memory
// latencies, and 2.2% beyond it.
func queueDeltas(n int) []Cycle {
	rng := rand.New(rand.NewSource(1))
	d := make([]Cycle, n)
	for i := range d {
		switch r := rng.Intn(1000); {
		case r < 420:
			d[i] = 1
		case r < 978:
			d[i] = 2 + Cycle(rng.ExpFloat64()*300)%(calSlots-2)
		default:
			d[i] = calSlots + Cycle(rng.Intn(16*calSlots))
		}
	}
	return d
}

// BenchmarkQueue replays the measured delta mix against a queue holding
// ~1,000 pending events: each op pops the earliest event and schedules one
// at its cycle plus the next delta, as the simulator's Run loop does. The
// allocation guard pins the steady state at zero allocations per op — the
// node pool and the overflow heap are reused once warm.
func BenchmarkQueue(b *testing.B) {
	const pending = 1000
	deltas := queueDeltas(1 << 14)
	fn := func() {}
	var q Queue
	for i := 0; i < pending; i++ {
		q.Schedule(deltas[i], fn)
	}
	step := func(i int) {
		ev := q.Pop()
		q.Schedule(ev.At+deltas[i&(len(deltas)-1)], fn)
	}
	for i := 0; i < 1<<16; i++ { // warm the node pool and the overflow heap
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		step(i)
	}
	runtime.ReadMemStats(&m1)
	b.StopTimer()
	if q.Len() != pending {
		b.Fatalf("pending = %d, want %d", q.Len(), pending)
	}
	if perOp := float64(m1.Mallocs-m0.Mallocs) / float64(b.N); perOp > 0 {
		b.Fatalf("queue allocates %.4f allocs/op in steady state, want 0", perOp)
	}
}
