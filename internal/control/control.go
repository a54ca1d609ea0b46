package control

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Objective selects what the controller's hill-climbing step optimizes.
type Objective int

const (
	// ObjWeightedSpeedup steers resources toward the slot with the highest
	// translation pressure (stall cycles beyond the L1 TLB per retired
	// instruction): relieving the most-stalled tenant buys the largest
	// marginal throughput, which is what weighted speedup sums.
	ObjWeightedSpeedup Objective = iota
	// ObjFairness steers resources toward the slot making the least
	// progress (fewest instructions retired in the window), equalizing
	// per-tenant slowdown.
	ObjFairness
	// ObjMaxMin moves resources from the resource-richest slot to the
	// slowest one, maximizing the minimum per-tenant progress.
	ObjMaxMin
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case ObjWeightedSpeedup:
		return "ws"
	case ObjFairness:
		return "fairness"
	case ObjMaxMin:
		return "maxmin"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective maps an objective name back to its value.
func ParseObjective(name string) (Objective, error) {
	switch name {
	case "ws", "weighted-speedup":
		return ObjWeightedSpeedup, nil
	case "fairness":
		return ObjFairness, nil
	case "maxmin", "max-min":
		return ObjMaxMin, nil
	}
	return 0, fmt.Errorf("control: unknown objective %q", name)
}

// Reason tags what triggered a controller decision.
type Reason int

const (
	// ReasonEpoch is the periodic tick: full samples are barrier-stable, so
	// the hill-climbing step runs.
	ReasonEpoch Reason = iota
	// ReasonArrival is a tenant admission; only the rebalance step runs.
	ReasonArrival
	// ReasonDeparture is a tenant completion; only the rebalance step runs.
	ReasonDeparture
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonEpoch:
		return "epoch"
	case ReasonArrival:
		return "arrival"
	case ReasonDeparture:
		return "departure"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Config tunes the controller.
type Config struct {
	// Period is the periodic decision interval in cycles (zero: 4096).
	Period int64
	// Objective selects the hill-climbing goal.
	Objective Objective
	// Frozen disables every decision: the initial assignment is final.
	// A frozen controller must reproduce the static partition exactly.
	Frozen bool
}

// The hill-climbing step's fixed tuning.
const (
	// minGain is the hysteresis threshold: a move needs the receiver's
	// score to exceed the donor's by this relative margin.
	minGain = 0.10
	// maxSetMoves and maxSMMoves bound how many set chunks / SMs one
	// periodic decision may move.
	maxSetMoves = 1
	maxSMMoves  = 1
	// cooldown is the number of periodic decisions to rest after a
	// climbing move before climbing again.
	cooldown = 1
)

// DefaultConfig returns the stock controller tuning.
func DefaultConfig() Config {
	return Config{Period: 4096, Objective: ObjWeightedSpeedup}
}

// withDefaults resolves a zero Period against DefaultConfig.
func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = DefaultConfig().Period
	}
	return c
}

// setChunk is the number of L2 TLB sets one set move transfers:
// L2Sets/(4*Slots), at least 1.
func (m Machine) setChunk() int {
	return max(m.L2Sets/(4*m.Slots), 1)
}

// Machine describes the partitionable hardware: admission slots (the
// MIG-like instance count), SMs, and L2 TLB sets (0 when set ownership is
// not under controller management).
type Machine struct {
	Slots  int
	NumSMs int
	L2Sets int
}

// Sample is one slot's counter snapshot at a decision point. Counters are
// cumulative since the start of the run; the controller differences
// consecutive periodic samples itself. Churn-triggered decisions ignore
// every counter field (they are not barrier-stable mid-epoch).
type Sample struct {
	Slot    int
	Active  bool
	SMs     int
	Sets    int
	TBsLeft int

	Insts    int64
	PageReqs int64
	L1Hits   int64
	L2Hits   int64
	Walks    int64
	Faults   int64

	StallL1    int64
	StallL2    int64
	StallWalk  int64
	StallFault int64
}

// Assignment is one full machine partition: SetBounds[i] to SetBounds[i+1]
// is slot i's contiguous L2 TLB set range (nil when sets are unmanaged;
// otherwise length Slots+1, from 0 to L2Sets), and SMs[i] is slot i's SM id
// list (sorted ascending).
type Assignment struct {
	SetBounds []int
	SMs       [][]int
}

// Clone deep-copies the assignment.
func (a Assignment) Clone() Assignment {
	out := Assignment{}
	if a.SetBounds != nil {
		out.SetBounds = append([]int(nil), a.SetBounds...)
	}
	out.SMs = make([][]int, len(a.SMs))
	for i, sms := range a.SMs {
		out.SMs[i] = append([]int(nil), sms...)
	}
	return out
}

// Decision records one assignment change.
type Decision struct {
	Cycle      int64
	Reason     Reason
	SetMoves   int
	SMMoves    int
	Rebalanced bool
	After      Assignment
}

// Stats tallies controller activity for the stats registry.
type Stats struct {
	Decisions  int64
	SetMoves   int64
	SMMoves    int64
	Rebalances int64
}

// Controller is the closed-loop repartitioner. Not safe for concurrent
// use; the simulator drives it from the barrier/serial event loop only.
type Controller struct {
	cfg Config
	m   Machine
	cur Assignment

	// setManaged / smManaged record which resources the controller may
	// move: sets need a full SetBounds partition, SMs need pairwise
	// disjoint slot lists (a shared SM assignment has nothing to move).
	setManaged bool
	smManaged  bool
	smIDs      []int // sorted union of all managed SM ids

	prev       []Sample
	havePrev   bool
	resting    int // periodic decisions left to rest after a climb
	activeMask uint64

	decisions []Decision
	stats     Stats
}

// New builds a controller for machine m starting from the given initial
// assignment (EqualSplit for the stock equal partition). The assignment is
// cloned; Validate reports what makes one acceptable.
func New(cfg Config, m Machine, initial Assignment) (*Controller, error) {
	if m.Slots < 1 {
		return nil, fmt.Errorf("control: machine needs at least 1 slot, got %d", m.Slots)
	}
	if err := Validate(m, initial); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:        cfg.withDefaults(),
		m:          m,
		cur:        initial.Clone(),
		setManaged: m.L2Sets > 0 && len(initial.SetBounds) == m.Slots+1,
		smManaged:  disjointSMs(initial.SMs),
	}
	for i := range c.cur.SMs {
		sort.Ints(c.cur.SMs[i])
	}
	if c.smManaged {
		for _, sms := range c.cur.SMs {
			c.smIDs = append(c.smIDs, sms...)
		}
		sort.Ints(c.smIDs)
	}
	return c, nil
}

// Config returns the resolved configuration.
func (c *Controller) Config() Config { return c.cfg }

// Machine returns the machine description.
func (c *Controller) Machine() Machine { return c.m }

// Assignment returns a clone of the current assignment.
func (c *Controller) Assignment() Assignment { return c.cur.Clone() }

// Decisions returns every assignment change so far, in decision order.
func (c *Controller) Decisions() []Decision { return c.decisions }

// Last returns the most recent decision, if any.
func (c *Controller) Last() (Decision, bool) {
	if len(c.decisions) == 0 {
		return Decision{}, false
	}
	return c.decisions[len(c.decisions)-1], true
}

// Stats returns the activity tallies.
func (c *Controller) Stats() Stats { return c.stats }

// Decide runs one decision at the given cycle and returns the (possibly
// updated) assignment plus whether it changed. samples must hold one entry
// per slot, in slot order. Periodic decisions (ReasonEpoch) difference the
// samples against the previous periodic tick and hill-climb; churn
// decisions read only the Active flags and rebalance. The returned
// assignment aliases controller state — clone before retaining.
func (c *Controller) Decide(cycle int64, reason Reason, samples []Sample) (Assignment, bool) {
	if len(samples) != c.m.Slots {
		panic(fmt.Sprintf("control: %d samples for %d slots", len(samples), c.m.Slots))
	}
	mask := activeMask(samples)
	dec := Decision{Cycle: cycle, Reason: reason}
	changed := false

	if reason != ReasonEpoch {
		// Churn: counters are not barrier-stable mid-epoch, so the decision
		// is a pure function of the active-slot set. The periodic sample
		// history is left untouched.
		if !c.cfg.Frozen && mask != c.activeMask {
			dec.Rebalanced = c.rebalance(mask)
			changed = dec.Rebalanced
		}
		c.activeMask = mask
		return c.finish(dec, changed)
	}

	var deltas []Sample
	if c.havePrev {
		deltas = make([]Sample, len(samples))
		for i := range samples {
			deltas[i] = diffSample(samples[i], c.prev[i])
		}
	}
	c.prev = append(c.prev[:0], samples...)
	c.havePrev = true

	if !c.cfg.Frozen && mask != c.activeMask {
		dec.Rebalanced = c.rebalance(mask)
		changed = dec.Rebalanced
	}
	c.activeMask = mask

	if !c.cfg.Frozen && deltas != nil && bits.OnesCount64(mask) >= 2 && !dec.Rebalanced {
		if c.resting > 0 {
			c.resting--
		} else {
			dec.SetMoves, dec.SMMoves = c.climb(samples, deltas)
			if dec.SetMoves+dec.SMMoves > 0 {
				changed = true
				c.resting = cooldown
			}
		}
	}
	return c.finish(dec, changed)
}

// finish records a change and returns the Decide result.
func (c *Controller) finish(dec Decision, changed bool) (Assignment, bool) {
	if changed {
		dec.After = c.cur.Clone()
		c.decisions = append(c.decisions, dec)
		c.stats.Decisions++
		c.stats.SetMoves += int64(dec.SetMoves)
		c.stats.SMMoves += int64(dec.SMMoves)
		if dec.Rebalanced {
			c.stats.Rebalances++
		}
	}
	return c.cur, changed
}

// rebalance redistributes the whole machine equally over the active slots:
// the i-th active slot (in slot order) gets the i-th contiguous share of
// the set space and of the sorted SM id list; inactive slots get nothing.
// With a single active slot this degenerates to the full machine. Reports
// whether anything changed.
func (c *Controller) rebalance(mask uint64) bool {
	k := bits.OnesCount64(mask)
	if k == 0 {
		return false
	}
	changed := false
	if c.setManaged {
		b := c.cur.SetBounds
		j, acc := 0, 0
		for i := 0; i < c.m.Slots; i++ {
			w := 0
			if mask&(1<<uint(i)) != 0 {
				w = (j+1)*c.m.L2Sets/k - j*c.m.L2Sets/k
				j++
			}
			acc += w
			if b[i+1] != acc {
				b[i+1] = acc
				changed = true
			}
		}
	}
	if c.smManaged {
		n := len(c.smIDs)
		j := 0
		for i := 0; i < c.m.Slots; i++ {
			var want []int
			if mask&(1<<uint(i)) != 0 {
				want = c.smIDs[j*n/k : (j+1)*n/k]
				j++
			}
			if !slices.Equal(c.cur.SMs[i], want) {
				c.cur.SMs[i] = append(c.cur.SMs[i][:0], want...)
				changed = true
			}
		}
	}
	return changed
}

// climb runs the hill-climbing step on the periodic counter deltas,
// returning how many set chunks and SMs moved. Receiver and donor are
// chosen by the objective; a move happens only when the hysteresis gate
// passes and the donor keeps at least one set / one SM.
func (c *Controller) climb(samples, deltas []Sample) (setMoves, smMoves int) {
	for c.setManaged && setMoves < maxSetMoves {
		recv, donor := c.pickPair(samples, deltas, true)
		if recv < 0 {
			break
		}
		width := c.cur.SetBounds[donor+1] - c.cur.SetBounds[donor]
		chunk := c.m.setChunk()
		if chunk > width-1 {
			chunk = width - 1
		}
		if chunk < 1 {
			break
		}
		c.moveSets(donor, recv, chunk)
		setMoves++
	}
	for c.smManaged && smMoves < maxSMMoves {
		recv, donor := c.pickPair(samples, deltas, false)
		if recv < 0 {
			break
		}
		c.moveSM(donor, recv)
		smMoves++
	}
	return setMoves, smMoves
}

// pickPair selects (receiver, donor) for one move of the given resource,
// or (-1, -1) when no move passes the objective's gate. Ties break toward
// the lowest slot index, so the choice is deterministic.
func (c *Controller) pickPair(samples, deltas []Sample, sets bool) (recv, donor int) {
	resource := func(i int) int {
		if sets {
			return c.cur.SetBounds[i+1] - c.cur.SetBounds[i]
		}
		return len(c.cur.SMs[i])
	}
	// A receiver must be active with work left; a donor must be active and
	// keep at least one unit after donating.
	canRecv := func(i int) bool { return samples[i].Active && samples[i].TBsLeft > 0 }
	canDonate := func(i int) bool { return samples[i].Active && resource(i) > 1 }
	if sets {
		canDonate = func(i int) bool { return samples[i].Active && resource(i) > c.m.setChunk() }
	}

	recv, donor = -1, -1
	switch c.cfg.Objective {
	case ObjWeightedSpeedup:
		// Receiver: highest translation pressure; donor: lowest.
		for i := range deltas {
			if canRecv(i) && (recv < 0 || pressure(deltas[i]) > pressure(deltas[recv])) {
				recv = i
			}
		}
		for i := range deltas {
			if i == recv || !canDonate(i) {
				continue
			}
			if donor < 0 || pressure(deltas[i]) < pressure(deltas[donor]) {
				donor = i
			}
		}
		if recv < 0 || donor < 0 {
			return -1, -1
		}
		if pressure(deltas[recv]) <= pressure(deltas[donor])*(1+minGain) {
			return -1, -1
		}
	case ObjFairness:
		// Receiver: least progress; donor: most.
		for i := range deltas {
			if canRecv(i) && (recv < 0 || deltas[i].Insts < deltas[recv].Insts) {
				recv = i
			}
		}
		for i := range deltas {
			if i == recv || !canDonate(i) {
				continue
			}
			if donor < 0 || deltas[i].Insts > deltas[donor].Insts {
				donor = i
			}
		}
		if recv < 0 || donor < 0 {
			return -1, -1
		}
		if float64(deltas[donor].Insts) <= float64(deltas[recv].Insts)*(1+minGain) {
			return -1, -1
		}
	case ObjMaxMin:
		// Receiver: least progress; donor: most resources (ahead of the
		// receiver in progress, and at least as rich — so a move raises the
		// minimum and stops once the receiver is the richest slot).
		for i := range deltas {
			if canRecv(i) && (recv < 0 || deltas[i].Insts < deltas[recv].Insts) {
				recv = i
			}
		}
		for i := range deltas {
			if i == recv || !canDonate(i) {
				continue
			}
			if donor < 0 || resource(i) > resource(donor) {
				donor = i
			}
		}
		if recv < 0 || donor < 0 {
			return -1, -1
		}
		if resource(donor) < resource(recv) ||
			float64(deltas[donor].Insts) <= float64(deltas[recv].Insts)*(1+minGain) {
			return -1, -1
		}
	}
	return recv, donor
}

// pressure is the hill-climbing signal: translation stall cycles beyond the
// L1 TLB per retired instruction in the window.
func pressure(d Sample) float64 {
	insts := d.Insts
	if insts < 1 {
		insts = 1
	}
	return float64(d.StallL2+d.StallWalk+d.StallFault) / float64(insts)
}

// moveSets transfers chunk sets from donor to recv by shifting the bounds
// between them; slots in between keep their widths (their windows slide).
func (c *Controller) moveSets(donor, recv, chunk int) {
	b := c.cur.SetBounds
	if donor < recv {
		for k := donor + 1; k <= recv; k++ {
			b[k] -= chunk
		}
	} else {
		for k := recv + 1; k <= donor; k++ {
			b[k] += chunk
		}
	}
}

// moveSM transfers one SM id from donor to recv: the donor's edge SM
// nearest the receiver's range, keeping both lists sorted.
func (c *Controller) moveSM(donor, recv int) {
	d := c.cur.SMs[donor]
	var id int
	if donor < recv {
		id = d[len(d)-1]
		c.cur.SMs[donor] = d[:len(d)-1]
	} else {
		id = d[0]
		c.cur.SMs[donor] = append(d[:0], d[1:]...)
	}
	r := c.cur.SMs[recv]
	pos := sort.SearchInts(r, id)
	r = append(r, 0)
	copy(r[pos+1:], r[pos:])
	r[pos] = id
	c.cur.SMs[recv] = r
}

// EqualSplit builds the stock initial assignment: contiguous equal shares
// of the sets and SM ids per slot.
func EqualSplit(m Machine) Assignment {
	a := Assignment{SMs: make([][]int, m.Slots)}
	if m.L2Sets > 0 {
		a.SetBounds = make([]int, m.Slots+1)
		for i := 0; i <= m.Slots; i++ {
			a.SetBounds[i] = i * m.L2Sets / m.Slots
		}
	}
	for i := 0; i < m.Slots; i++ {
		lo, hi := i*m.NumSMs/m.Slots, (i+1)*m.NumSMs/m.Slots
		for sm := lo; sm < hi; sm++ {
			a.SMs[i] = append(a.SMs[i], sm)
		}
	}
	return a
}

// Validate checks that a is a well-formed partition of m: SetBounds (when
// present) is a monotone cover of [0, L2Sets]; SMs has one list per slot
// with every id in range; and when the lists are pairwise disjoint their
// union covers every SM exactly once.
func Validate(m Machine, a Assignment) error {
	if a.SetBounds != nil {
		if len(a.SetBounds) != m.Slots+1 {
			return fmt.Errorf("control: SetBounds has %d entries, want %d", len(a.SetBounds), m.Slots+1)
		}
		if a.SetBounds[0] != 0 || a.SetBounds[m.Slots] != m.L2Sets {
			return fmt.Errorf("control: SetBounds spans [%d,%d], want [0,%d]",
				a.SetBounds[0], a.SetBounds[m.Slots], m.L2Sets)
		}
		for i := 0; i < m.Slots; i++ {
			if a.SetBounds[i+1] < a.SetBounds[i] {
				return fmt.Errorf("control: SetBounds not monotone at slot %d", i)
			}
		}
	}
	if len(a.SMs) != m.Slots {
		return fmt.Errorf("control: SMs has %d slots, want %d", len(a.SMs), m.Slots)
	}
	seen := make(map[int]bool)
	dup := false
	total := 0
	for i, sms := range a.SMs {
		for _, id := range sms {
			if id < 0 || id >= m.NumSMs {
				return fmt.Errorf("control: slot %d SM %d outside [0,%d)", i, id, m.NumSMs)
			}
			if seen[id] {
				dup = true
			}
			seen[id] = true
			total++
		}
	}
	if !dup && total > 0 && len(seen) != m.NumSMs {
		return fmt.Errorf("control: disjoint SM lists cover %d of %d SMs", len(seen), m.NumSMs)
	}
	return nil
}

// activeMask packs the samples' Active flags into a bitmask by slot.
func activeMask(samples []Sample) uint64 {
	var mask uint64
	for _, s := range samples {
		if s.Active {
			mask |= 1 << uint(s.Slot)
		}
	}
	return mask
}

// diffSample subtracts the counter fields (identity fields come from cur).
func diffSample(cur, prev Sample) Sample {
	d := cur
	d.Insts -= prev.Insts
	d.PageReqs -= prev.PageReqs
	d.L1Hits -= prev.L1Hits
	d.L2Hits -= prev.L2Hits
	d.Walks -= prev.Walks
	d.Faults -= prev.Faults
	d.StallL1 -= prev.StallL1
	d.StallL2 -= prev.StallL2
	d.StallWalk -= prev.StallWalk
	d.StallFault -= prev.StallFault
	return d
}

// disjointSMs reports whether the slot SM lists are pairwise disjoint.
func disjointSMs(sms [][]int) bool {
	seen := make(map[int]bool)
	for _, list := range sms {
		for _, id := range list {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
	}
	return len(seen) > 0
}
