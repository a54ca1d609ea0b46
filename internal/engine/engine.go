package engine

import "math/bits"

// Cycle is a point in simulated time, in GPU core clock cycles.
type Cycle int64

// Event is a callback scheduled to run at a specific cycle.
type Event struct {
	At Cycle
	Fn func()

	pri uint64 // tie-break: explicit priority among same-cycle events
	seq int64  // tie-break: FIFO among same-cycle, same-priority events
}

// before is the queue order: earliest cycle first, then priority, then
// insertion order. Schedule leaves every event at priority zero, so plain
// queues order purely by (cycle, insertion) — SchedulePri callers opt into
// the middle key.
func (e Event) before(o Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	if e.pri != o.pri {
		return e.pri < o.pri
	}
	return e.seq < o.seq
}

// The calendar covers calSlots consecutive cycles starting at the queue's
// base, one slot per cycle. An event further ahead, or behind the base,
// waits in the overflow heap instead.
const (
	calBits  = 12
	calSlots = 1 << calBits
	calMask  = calSlots - 1
	calWords = calSlots / 64
)

// First capacities of the node pool and the overflow heap: the simulator
// keeps up to ~1,000 events pending, a few percent of them in overflow, so
// starting here skips the small early growth steps.
const (
	initNodes = 256
	initOver  = 32
)

// node is one calendar event; next links it into its slot's list (a 1-based
// index into Queue.nodes, 0 ends the list).
type node struct {
	ev   Event
	next int32
}

// Queue is a deterministic event queue. The zero value is ready to use.
//
// Events within calSlots cycles of the base — the latest popped cycle —
// live in a calendar: a ring with one list per cycle, each kept in
// (pri, seq) order, and a two-level bitmap of the non-empty slots, so
// scheduling and popping cost O(1) instead of a heap's O(log n). The rest
// live in a small binary heap; Pop takes whichever head comes first, so the
// total order is exactly (At, pri, seq) wherever an event is stored.
type Queue struct {
	base Cycle // calendar slot s holds cycle base + (s-base)&calMask
	ncal int   // pending events in the calendar

	head, tail [calSlots]int32 // per-slot list ends, 1-based node indices
	used       [calWords]uint64
	usedWords  uint64 // bit w set iff used[w] != 0

	nodes []node
	free  int32 // head of the free-node list, 1-based

	over    []Event // overflow binary heap
	nextSeq int64
}

// Schedule enqueues fn to run at cycle at. Scheduling before the last
// popped cycle is the caller's bug: the queue orders such an event first
// but cannot detect the mistake; the simulator's Run loops check for it.
func (q *Queue) Schedule(at Cycle, fn func()) {
	q.push(Event{At: at, Fn: fn, seq: q.nextSeq})
}

// SchedulePri enqueues fn to run at cycle at with an explicit same-cycle
// priority: events at equal cycles run in ascending pri, insertion order
// within equal pri. The sharded engine uses this to order same-cycle events
// by when they were *logically* produced rather than by which epoch barrier
// happened to insert them.
func (q *Queue) SchedulePri(at Cycle, pri uint64, fn func()) {
	q.push(Event{At: at, Fn: fn, pri: pri, seq: q.nextSeq})
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return q.ncal + len(q.over) }

// NextCycle returns the cycle of the earliest pending event. It panics if the
// queue is empty; check Len first.
func (q *Queue) NextCycle() Cycle {
	if q.ncal == 0 {
		if len(q.over) == 0 {
			panic("engine: NextCycle on empty queue")
		}
		return q.over[0].At
	}
	at := q.base + Cycle((q.firstSlot()-int(q.base))&calMask)
	if len(q.over) > 0 && q.over[0].At < at {
		return q.over[0].At
	}
	return at
}

// Pop removes and returns the earliest event.
func (q *Queue) Pop() Event {
	if q.ncal > 0 {
		s := q.firstSlot()
		i := q.head[s]
		nd := &q.nodes[i-1]
		if len(q.over) == 0 || !q.over[0].before(nd.ev) {
			ev := nd.ev
			q.ncal--
			q.head[s] = nd.next
			if nd.next == 0 {
				q.tail[s] = 0
				q.clearUsed(s)
			}
			nd.ev = Event{} // release the Fn reference
			nd.next = q.free
			q.free = i
			q.base = ev.At
			return ev
		}
	}
	if len(q.over) == 0 {
		panic("engine: Pop on empty queue")
	}
	ev := q.popOver()
	// ev is the global minimum, so every calendar event is at or after it
	// and the window may slide forward to it; it never slides back.
	if ev.At > q.base {
		q.base = ev.At
	}
	return ev
}

// RunUntil fires every event with At <= limit, in order.
func (q *Queue) RunUntil(limit Cycle) {
	for q.Len() > 0 && q.NextCycle() <= limit {
		q.Pop().Fn()
	}
}

// push stores ev in its calendar slot, or in the overflow heap when it lies
// outside the window [base, base+calSlots).
func (q *Queue) push(ev Event) {
	q.nextSeq++
	if d := ev.At - q.base; d < 0 || d >= calSlots {
		if q.over == nil {
			q.over = make([]Event, 0, initOver)
		}
		q.over = append(q.over, ev)
		q.up(len(q.over) - 1)
		return
	}
	q.ncal++
	s := int(ev.At) & calMask
	i := q.alloc(ev)
	// Every event in a slot shares one cycle and has a smaller seq, so ev
	// goes after the last event whose pri is not above its own — usually
	// the tail.
	switch t := q.tail[s]; {
	case t == 0:
		q.head[s], q.tail[s] = i, i
		q.used[s>>6] |= 1 << (s & 63)
		q.usedWords |= 1 << (s >> 6)
	case q.nodes[t-1].ev.pri <= ev.pri:
		q.nodes[t-1].next = i
		q.tail[s] = i
	default: // the tail's pri is above ev's, so the walk stops before it
		link := &q.head[s]
		for q.nodes[*link-1].ev.pri <= ev.pri {
			link = &q.nodes[*link-1].next
		}
		q.nodes[i-1].next = *link
		*link = i
	}
}

// alloc places ev in a free node and returns its 1-based index.
func (q *Queue) alloc(ev Event) int32 {
	if i := q.free; i != 0 {
		q.free = q.nodes[i-1].next
		q.nodes[i-1] = node{ev: ev}
		return i
	}
	if q.nodes == nil {
		q.nodes = make([]node, 0, initNodes)
	}
	q.nodes = append(q.nodes, node{ev: ev})
	return int32(len(q.nodes))
}

// firstSlot returns the first non-empty calendar slot at or after the
// base's, wrapping around the ring. The calendar must be non-empty.
func (q *Queue) firstSlot() int {
	s := int(q.base) & calMask
	w := s >> 6
	if m := q.used[w] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	// Later words first; on wrap-around, the lowest non-empty word (which
	// may be w itself, below the base's bit).
	ws := q.usedWords &^ (1<<(w+1) - 1)
	if ws == 0 {
		ws = q.usedWords
	}
	w = bits.TrailingZeros64(ws)
	return w<<6 + bits.TrailingZeros64(q.used[w])
}

func (q *Queue) clearUsed(s int) {
	w := s >> 6
	q.used[w] &^= 1 << (s & 63)
	if q.used[w] == 0 {
		q.usedWords &^= 1 << w
	}
}

// popOver removes and returns the overflow heap's earliest event.
func (q *Queue) popOver() Event {
	ev := q.over[0]
	n := len(q.over) - 1
	q.over[0] = q.over[n]
	q.over[n] = Event{} // release the Fn reference
	q.over = q.over[:n]
	if n > 0 {
		q.down(0)
	}
	return ev
}

// up restores the overflow heap property from child i toward the root.
func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.over[i].before(q.over[parent]) {
			return
		}
		q.over[i], q.over[parent] = q.over[parent], q.over[i]
		i = parent
	}
}

// down restores the overflow heap property from parent i toward the leaves.
func (q *Queue) down(i int) {
	n := len(q.over)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && q.over[r].before(q.over[l]) {
			least = r
		}
		if !q.over[least].before(q.over[i]) {
			return
		}
		q.over[i], q.over[least] = q.over[least], q.over[i]
		i = least
	}
}
