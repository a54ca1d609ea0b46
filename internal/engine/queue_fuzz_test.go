package engine

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent and refHeap are the fuzz test's reference queue: the plain
// (At, pri, seq) binary heap the calendar queue must agree with pop for pop.
type refEvent struct {
	at  Cycle
	pri uint64
	seq int64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// fuzzDeltas are the schedule offsets from the latest popped cycle the
// fuzz program picks from: same cycle, next cycle, both sides of the
// calendar window's edge, far beyond it, and behind the last pop.
var fuzzDeltas = []Cycle{
	0, 1, 2, 3, 63, 64, 65, 1000,
	calSlots - 1, calSlots, calSlots + 1, 2*calSlots - 1, 2 * calSlots, 3*calSlots + 7, 1 << 20, 1 << 40,
	-1, -2, -64, -(calSlots - 1), -calSlots, -(calSlots + 1), -(1 << 20),
}

// runQueueProgram interprets prog as a sequence of queue operations, drives
// a Queue and the reference heap side by side, and fails on the first
// difference in pop order, NextCycle or Len.
func runQueueProgram(t *testing.T, prog []byte) {
	var q Queue
	var ref refHeap
	var seq int64
	var now Cycle // latest popped cycle, as the simulator's clock would be
	var fired []int
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	delta := func(b byte) Cycle {
		if i := int(b) % 32; i < len(fuzzDeltas) {
			return fuzzDeltas[i]
		}
		return Cycle(b) * 13
	}
	schedule := func(at Cycle, pri uint64, withPri bool) {
		id := int(seq)
		fn := func() { fired = append(fired, id) }
		if withPri {
			q.SchedulePri(at, pri, fn)
		} else {
			q.Schedule(at, fn)
		}
		heap.Push(&ref, refEvent{at: at, pri: pri, seq: seq, id: id})
		seq++
	}
	for step := 0; len(prog) > 0; step++ {
		switch op := next() % 8; op {
		case 0, 1, 2:
			schedule(now+delta(next()), 0, false)
		case 3:
			at := now + delta(next())
			schedule(at, uint64(next()%4), true)
		case 4, 5:
			if ref.Len() == 0 {
				continue
			}
			ev := q.Pop()
			want := heap.Pop(&ref).(refEvent)
			fired = fired[:0]
			ev.Fn()
			if ev.At != want.at || len(fired) != 1 || fired[0] != want.id {
				t.Fatalf("step %d: Pop = (at %d, id %v), want (at %d, id %d)", step, ev.At, fired, want.at, want.id)
			}
			if ev.At > now {
				now = ev.At
			}
		case 6:
			if ref.Len() == 0 {
				continue
			}
			if got, want := q.NextCycle(), ref[0].at; got != want {
				t.Fatalf("step %d: NextCycle = %d, want %d", step, got, want)
			}
		case 7:
			limit := now + delta(next())
			fired = fired[:0]
			q.RunUntil(limit)
			var want []int
			for ref.Len() > 0 && ref[0].at <= limit {
				ev := heap.Pop(&ref).(refEvent)
				want = append(want, ev.id)
				if ev.at > now {
					now = ev.at
				}
			}
			if len(fired) != len(want) {
				t.Fatalf("step %d: RunUntil(%d) fired %d events, want %d", step, limit, len(fired), len(want))
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("step %d: RunUntil(%d) fired %v, want %v", step, limit, fired, want)
				}
			}
		}
		if q.Len() != ref.Len() {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), ref.Len())
		}
	}
	for ref.Len() > 0 {
		ev := q.Pop()
		want := heap.Pop(&ref).(refEvent)
		fired = fired[:0]
		ev.Fn()
		if ev.At != want.at || fired[0] != want.id {
			t.Fatalf("drain: Pop = (at %d, id %v), want (at %d, id %d)", ev.At, fired, want.at, want.id)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue reports Len %d", q.Len())
	}
}

// FuzzQueueMatchesReference drives random interleavings of Schedule,
// SchedulePri, Pop, NextCycle and RunUntil against a reference heap; the
// pop sequences must be identical. The seed corpus runs under plain
// go test.
func FuzzQueueMatchesReference(f *testing.F) {
	// Hand-written programs: the window edge, far-future events that come
	// into the window later, and schedules behind the last pop.
	f.Add([]byte{0, 8, 0, 9, 0, 10, 0, 1, 4, 4, 4, 4})
	f.Add([]byte{0, 15, 0, 14, 0, 10, 4, 0, 1, 0, 0, 4, 4, 6, 4, 4})
	f.Add([]byte{0, 1, 4, 0, 16, 0, 19, 3, 0, 2, 3, 0, 1, 6, 4, 4, 4, 4})
	f.Add([]byte{3, 1, 3, 3, 1, 1, 3, 1, 0, 0, 1, 3, 11, 2, 7, 10, 7, 9})
	// Pseudo-random programs long enough to wrap the ring many times.
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 4096)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(runQueueProgram)
}
