package noc

import (
	"math/bits"

	"gputlb/internal/engine"
	"gputlb/internal/stats"
)

// windowBits sets the reservation window (2^6 = 64 cycles).
const windowBits = 6

// horizon is how many windows ahead a port tracks; requests beyond it are
// uncontended (in-flight latencies are far shorter than the horizon).
const horizon = 256

// port is one direction of one endpoint: a circular ring of per-window slot
// counts. Window w lives at counts[w%horizon] while w is inside
// [base, base+horizon); sliding the ring forward only zeroes the windows
// that enter the horizon instead of copying the whole ring. full mirrors
// the ring as a bitmap of the windows at capacity, so the search for the
// first window with room reads a few words instead of one count per
// window: a congested port's requests skip whole runs of full windows,
// and those runs need not start at the ring's base.
type port struct {
	counts [horizon]uint16
	full   [horizon / 64]uint64 // bit w%horizon: window w is at capacity
	base   int64                // lowest window index still tracked
}

// slide advances the ring so that window w fits inside the horizon. It
// reports false for a far-future outlier that should be granted without
// accounting rather than dragging the ring (and every near-term request)
// forward.
func (p *port) slide(w int64) bool {
	shift := w - (p.base + horizon) + 1
	if shift >= horizon {
		return false
	}
	for i := int64(0); i < shift; i++ {
		j := (p.base + i) & (horizon - 1)
		p.counts[j] = 0
		p.full[j>>6] &^= 1 << (j & 63)
	}
	p.base += shift
	return true
}

// firstFree returns the first window at or after w (inside the horizon)
// that is not at capacity, or base+horizon when every tracked window from
// w on is full.
func (p *port) firstFree(w int64) int64 {
	end := p.base + horizon
	for w < end {
		j := w & (horizon - 1)
		if free := ^p.full[j>>6] >> (j & 63); free != 0 {
			// Bits past the horizon's end belong to windows that wrapped
			// around the ring; a first free bit there is no window of ours.
			return min(w+int64(bits.TrailingZeros64(free)), end)
		}
		w += 64 - j&63
	}
	return end
}

// add books n more units into window w's count, marking the window full
// once its count reaches capacity.
func (p *port) add(w int64, n, capacity uint16) {
	j := w & (horizon - 1)
	p.counts[j] += n
	if p.counts[j] >= capacity {
		p.full[j>>6] |= 1 << (j & 63)
	}
}

// reserve books one slot at or after cycle `at` and returns the granted
// start cycle. capacity is the number of slots per window.
func (p *port) reserve(at engine.Cycle, capacity uint16) engine.Cycle {
	w := int64(at) >> windowBits
	if w < p.base {
		// A window that has already slid out of the ring: grant without
		// accounting (rare, bounded distortion).
		return at
	}
	if w >= p.base+horizon && !p.slide(w) {
		return at
	}
	// Running off the tracked horizon grants without accounting.
	if w = p.firstFree(w); w < p.base+horizon {
		p.add(w, 1, capacity)
	}
	start := engine.Cycle(w << windowBits)
	if at > start {
		start = at
	}
	return start
}

// Crossbar is an N-SM x M-partition interconnect. The zero value is not
// usable; call New.
type Crossbar struct {
	in       []port
	out      []port
	latency  engine.Cycle
	capacity uint16 // slots per 64-cycle window per port
	packets  int64
	stalls   int64
}

// New builds a crossbar with the given traversal latency and per-request
// port service time in cycles (a service of s cycles means 64/s requests
// per port per 64-cycle window).
func New(numSMs, numPartitions int, latency, service int) *Crossbar {
	if numSMs < 1 || numPartitions < 1 {
		panic("noc: need at least one port on each side")
	}
	if service < 1 {
		service = 1
	}
	cap := (1 << windowBits) / service
	if cap < 1 {
		cap = 1
	}
	return &Crossbar{
		in:       make([]port, numSMs),
		out:      make([]port, numPartitions),
		latency:  engine.Cycle(latency),
		capacity: uint16(cap),
	}
}

// Traverse sends one request from SM sm to partition part at cycle at and
// returns its arrival time.
func (x *Crossbar) Traverse(sm, part int, at engine.Cycle) engine.Cycle {
	x.packets++
	start := x.in[sm].reserve(at, x.capacity)
	arrive := x.out[part].reserve(start+x.latency, x.capacity)
	if arrive > at+x.latency {
		x.stalls++
	}
	return arrive
}

// Return sends a reply from partition part back to SM sm.
func (x *Crossbar) Return(part, sm int, at engine.Cycle) engine.Cycle {
	x.packets++
	start := x.out[part].reserve(at, x.capacity)
	arrive := x.in[sm].reserve(start+x.latency, x.capacity)
	if arrive > at+x.latency {
		x.stalls++
	}
	return arrive
}

// Packets returns the number of traversals.
func (x *Crossbar) Packets() int64 { return x.packets }

// Stalls returns the number of requests delayed past the bare latency (a
// congestion indicator).
func (x *Crossbar) Stalls() int64 { return x.stalls }

// RegisterStats registers the crossbar's traffic counters into r; values
// are read lazily at snapshot time.
func (x *Crossbar) RegisterStats(r *stats.Registry) {
	r.CounterFunc("packets", func() int64 { return x.packets })
	r.CounterFunc("stalls", func() int64 { return x.stalls })
	r.GaugeFunc("stall_rate", func() float64 {
		if x.packets == 0 {
			return 0
		}
		return float64(x.stalls) / float64(x.packets)
	})
}

// Meter is an order-insensitive capacity meter for a resource that serves
// a bounded number of busy-cycles per time window (a DRAM bank, a walker
// pool). Reserve books `cost` busy-cycles at or after `at`, spreading the
// cost over consecutive windows, and returns the granted start cycle.
type Meter struct {
	p port
}

// Reserve books cost busy-cycles starting at or after at.
func (m *Meter) Reserve(at engine.Cycle, cost int) engine.Cycle {
	const budget = 1 << windowBits
	w := int64(at) >> windowBits
	if w < m.p.base {
		return at
	}
	if w >= m.p.base+horizon && !m.p.slide(w) {
		return at
	}
	// Start in the first window with slack.
	w = m.p.firstFree(w)
	start := engine.Cycle(w << windowBits)
	if at > start {
		start = at
	}
	// Spread the cost over consecutive windows.
	for c := cost; c > 0 && w-m.p.base < horizon; {
		free := budget - int(m.p.counts[w&(horizon-1)])
		if free > c {
			free = c
		}
		m.p.add(w, uint16(free), budget)
		c -= free
		w++
	}
	return start
}
