package noc

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"gputlb/internal/engine"
)

func TestTraverseLatencyUncontended(t *testing.T) {
	x := New(2, 2, 20, 1)
	if got := x.Traverse(0, 1, 100); got != 120 {
		t.Errorf("uncontended traverse = %d, want 120", got)
	}
	if x.Stalls() != 0 {
		t.Errorf("stalls = %d on an idle network", x.Stalls())
	}
}

func TestWindowCapacitySpills(t *testing.T) {
	// service 1 -> 64 slots per 64-cycle window; the 65th same-cycle
	// request must spill into the next window.
	x := New(1, 4, 10, 1)
	spilled := false
	for i := 0; i < 65; i++ {
		if got := x.Traverse(0, i%4, 0); got >= 64 {
			spilled = true
		}
	}
	if !spilled {
		t.Error("65 same-window requests never spilled past the window")
	}
	if x.Stalls() == 0 {
		t.Error("no stalls recorded under overload")
	}
}

func TestOrderInsensitive(t *testing.T) {
	// A far-future request must not delay an earlier one (the failure mode
	// of busy-until port models under out-of-order discovery).
	x := New(1, 1, 10, 1)
	x.Traverse(0, 0, 100000)
	early := x.Traverse(0, 0, 50)
	if early != 60 {
		t.Errorf("early request arrived at %d, want 60 (undisturbed)", early)
	}
}

func TestReturnPath(t *testing.T) {
	x := New(2, 2, 10, 1)
	arrive := x.Traverse(0, 1, 0)
	back := x.Return(1, 0, arrive)
	if back < arrive+10 {
		t.Errorf("reply at %d, want >= %d", back, arrive+10)
	}
	if x.Packets() != 2 {
		t.Errorf("Packets = %d, want 2", x.Packets())
	}
}

func TestFarFutureRequests(t *testing.T) {
	x := New(1, 1, 10, 1)
	// Jump far beyond the horizon repeatedly; must not panic and must
	// respect the base latency.
	for _, at := range []engine.Cycle{0, 1 << 20, 1 << 30, 100, 1 << 31} {
		if got := x.Traverse(0, 0, at); got < at+10 {
			t.Errorf("at=%d arrived %d, below latency bound", at, got)
		}
	}
}

// Property: arrival is never before at+latency.
func TestTraverseProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		x := New(2, 2, 15, 2) // capacity 32/window
		for _, r := range raw {
			at := engine.Cycle(r % 2048)
			if got := x.Traverse(0, 1, at); got < at+15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMeterUncontended(t *testing.T) {
	var m Meter
	if got := m.Reserve(100, 10); got != 100 {
		t.Errorf("uncontended Reserve = %d, want 100", got)
	}
}

func TestMeterSaturationSpills(t *testing.T) {
	var m Meter
	// A window holds 64 busy-cycles; the second 64-cycle job must start in
	// a later window.
	a := m.Reserve(0, 64)
	b := m.Reserve(0, 64)
	if a != 0 {
		t.Errorf("first job started at %d, want 0", a)
	}
	if b < 64 {
		t.Errorf("second job started at %d, want >= 64 (window full)", b)
	}
}

func TestMeterSpreadsLargeCosts(t *testing.T) {
	var m Meter
	m.Reserve(0, 500) // fills ~8 windows
	got := m.Reserve(0, 64)
	if got < 448 {
		t.Errorf("job behind a 500-cycle reservation started at %d, want >= 448", got)
	}
}

func TestMeterOrderInsensitive(t *testing.T) {
	var m Meter
	m.Reserve(1<<30, 64) // far future: must not disturb the present
	if got := m.Reserve(0, 10); got != 0 {
		t.Errorf("early job started at %d after a far-future reservation, want 0", got)
	}
}

// Property: Reserve never starts before `at` and a saturating stream makes
// forward progress (start times unbounded below a linear envelope).
func TestMeterProperty(t *testing.T) {
	f := func(costs []uint8) bool {
		var m Meter
		total := 0
		var last engine.Cycle
		for _, c := range costs {
			cost := 1 + int(c)%100
			got := m.Reserve(0, cost)
			if got < 0 {
				return false
			}
			total += cost
			last = got
		}
		// The final start cannot be later than the total booked work.
		return int(last) <= total+64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refPort is the port before its full-window bitmap: a linear scan for
// the first window with room, skipping a frontier of windows known full
// from the ring's base. The bitmap must grant exactly what it grants.
type refPort struct {
	counts [horizon]uint16
	base   int64
	full   int64
}

func (p *refPort) slide(w int64) bool {
	shift := w - (p.base + horizon) + 1
	if shift >= horizon {
		return false
	}
	for i := int64(0); i < shift; i++ {
		p.counts[(p.base+i)&(horizon-1)] = 0
	}
	p.base += shift
	if p.full < p.base {
		p.full = p.base
	}
	return true
}

func (p *refPort) reserve(at engine.Cycle, capacity uint16) engine.Cycle {
	w := int64(at) >> windowBits
	if w < p.base {
		return at
	}
	if w >= p.base+horizon && !p.slide(w) {
		return at
	}
	contig := w <= p.full
	if w < p.full {
		w = p.full
	}
	for w-p.base < horizon {
		if c := &p.counts[w&(horizon-1)]; *c < capacity {
			*c++
			if contig && *c >= capacity {
				p.full = w + 1
			}
			break
		}
		w++
		if contig {
			p.full = w
		}
	}
	return max(at, engine.Cycle(w<<windowBits))
}

func (p *refPort) meter(at engine.Cycle, cost int) engine.Cycle {
	const budget = 1 << windowBits
	w := int64(at) >> windowBits
	if w < p.base {
		return at
	}
	if w >= p.base+horizon && !p.slide(w) {
		return at
	}
	contig := w <= p.full
	if w < p.full {
		w = p.full
	}
	for w-p.base < horizon && p.counts[w&(horizon-1)] >= budget {
		w++
		if contig {
			p.full = w
		}
	}
	start := max(at, engine.Cycle(w<<windowBits))
	for c := cost; c > 0 && w-p.base < horizon; {
		idx := w & (horizon - 1)
		free := min(budget-int(p.counts[idx]), c)
		p.counts[idx] += uint16(free)
		c -= free
		w++
	}
	return start
}

// reqTime maps a random step to a request cycle around a moving clock:
// mostly near-term requests that pile into the same windows (the
// congested case), some further ahead inside the horizon, some just past
// it (a slide), and far-future outliers (granted without accounting).
func reqTime(clock *engine.Cycle, r uint32) engine.Cycle {
	*clock += engine.Cycle(r % 7)
	switch r >> 28 {
	case 0:
		return *clock + engine.Cycle(r>>8)%(horizon<<windowBits)
	case 1:
		return *clock + horizon<<windowBits + engine.Cycle(r>>8)%(4<<windowBits)
	case 2:
		return *clock + engine.Cycle(r>>8)<<windowBits
	case 3:
		*clock += engine.Cycle(r>>8) % (64 << windowBits) // a quiet stretch
		return *clock
	default:
		return *clock + engine.Cycle(r>>8)%(8<<windowBits)
	}
}

// Property: the bitmap port grants every request of a random sequence the
// same start cycle as the linear scan, at any capacity, through slides,
// stale windows and far-future outliers; so does a Meter. The sequences
// are long enough to fill whole runs of windows.
func TestPortMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	delayed := 0
	for trial := 0; trial < 200; trial++ {
		capacity := uint16(1 + rng.IntN(64))
		var p port
		var ref refPort
		var m Meter
		var mref refPort
		var clock engine.Cycle
		for i := 0; i < 3000; i++ {
			r := rng.Uint32()
			at := reqTime(&clock, r)
			got, want := p.reserve(at, capacity), ref.reserve(at, capacity)
			if got != want {
				t.Fatalf("trial %d (capacity %d), step %d: reserve(%d) = %d, linear scan %d", trial, capacity, i, at, got, want)
			}
			if got>>windowBits > at>>windowBits {
				delayed++
			}
			cost := 1 + int(r%97)
			if got, want := m.Reserve(at, cost), mref.meter(at, cost); got != want {
				t.Fatalf("trial %d, step %d: Meter.Reserve(%d, %d) = %d, linear scan %d", trial, i, at, cost, got, want)
			}
		}
	}
	if delayed == 0 {
		t.Fatal("no request waited past its window: the sequences never congest a port")
	}
}
