package control

import (
	"slices"
	"testing"
)

// mach is the stock test machine: 4 slots, 16 SMs, 32 L2 TLB sets —
// arch.Default geometry at the maximum grid tenancy.
var mach = Machine{Slots: 4, NumSMs: 16, L2Sets: 32}

// sampleSet builds one slot-ordered sample vector from per-slot (active,
// insts, stall) triples, filling the identity fields from the assignment.
func sampleSet(c *Controller, active []bool, insts, stall []int64) []Sample {
	m := c.Machine()
	a := c.Assignment()
	out := make([]Sample, m.Slots)
	for i := range out {
		out[i] = Sample{Slot: i, Active: active[i], SMs: len(a.SMs[i]), TBsLeft: 1}
		if a.SetBounds != nil {
			out[i].Sets = a.SetBounds[i+1] - a.SetBounds[i]
		}
		if i < len(insts) {
			out[i].Insts = insts[i]
		}
		if i < len(stall) {
			out[i].StallWalk = stall[i]
		}
	}
	return out
}

func TestEqualSplitValidates(t *testing.T) {
	for slots := 1; slots <= 4; slots++ {
		m := Machine{Slots: slots, NumSMs: 16, L2Sets: 32}
		if err := Validate(m, EqualSplit(m)); err != nil {
			t.Fatalf("EqualSplit(%d slots): %v", slots, err)
		}
	}
}

// TestPartitionInvariant drives the controller through a long mixed
// sequence of periodic and churn decisions with skewed counters and checks
// after every decision that the assignment is still a partition: no set
// unowned or doubly-owned, no SM lost or duplicated.
func TestPartitionInvariant(t *testing.T) {
	c, err := New(Config{Period: 100}, mach, EqualSplit(mach))
	if err != nil {
		t.Fatal(err)
	}
	active := []bool{true, true, true, true}
	var insts, stall [4]int64
	// Deterministic pseudo-random walk over counter growth and churn.
	x := uint64(12345)
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	cycle := int64(0)
	for step := 0; step < 500; step++ {
		cycle += 100
		reason := ReasonEpoch
		switch next(10) {
		case 0:
			reason = ReasonArrival
			active[next(4)] = true
		case 1:
			reason = ReasonDeparture
			// Keep at least one slot active.
			idx := int(next(4))
			active[idx] = false
			any := false
			for _, a := range active {
				any = any || a
			}
			if !any {
				active[idx] = true
			}
		}
		for i := range insts {
			insts[i] += int64(next(1000))
			stall[i] += int64(next(100000))
		}
		a, _ := c.Decide(cycle, reason, sampleSet(c, active, insts[:], stall[:]))
		if err := Validate(mach, a); err != nil {
			t.Fatalf("step %d (%s): %v", step, reason, err)
		}
		// Every set covered exactly once by construction of bounds; check
		// the active slots hold the whole machine when SMs are disjoint.
		total := 0
		for _, sms := range a.SMs {
			total += len(sms)
		}
		if total != mach.NumSMs {
			t.Fatalf("step %d: %d SMs assigned, want %d", step, total, mach.NumSMs)
		}
	}
}

// TestHysteresisBoundsMoves checks that one periodic decision never moves
// more than maxSetMoves chunks / maxSMMoves SMs, and that after a climbing
// move the controller rests for cooldown periods.
func TestHysteresisBoundsMoves(t *testing.T) {
	c, err := New(Config{Period: 100}, mach, EqualSplit(mach))
	if err != nil {
		t.Fatal(err)
	}
	active := []bool{true, true, true, true}
	var insts, stall [4]int64
	grow := func() {
		for i := range insts {
			insts[i] += 1000
		}
		stall[0] += 10_000_000 // slot 0 under massive translation pressure
	}
	// Prime the history.
	grow()
	c.Decide(100, ReasonEpoch, sampleSet(c, active, insts[:], stall[:]))
	lastMove := -10
	for step := 2; step < 20; step++ {
		grow()
		before := c.Assignment()
		_, changed := c.Decide(int64(step*100), ReasonEpoch, sampleSet(c, active, insts[:], stall[:]))
		if !changed {
			continue
		}
		d, _ := c.Last()
		if d.SetMoves > maxSetMoves || d.SMMoves > maxSMMoves {
			t.Fatalf("step %d: %d set moves / %d SM moves exceed the bounds", step, d.SetMoves, d.SMMoves)
		}
		// Chunk accounting: bounds moved by at most setChunk per move.
		after := c.Assignment()
		for i := 1; i < len(after.SetBounds)-1; i++ {
			delta := after.SetBounds[i] - before.SetBounds[i]
			if delta < 0 {
				delta = -delta
			}
			if delta > mach.setChunk()*d.SetMoves {
				t.Fatalf("step %d: bound %d moved %d sets, chunk is %d", step, i, delta, mach.setChunk())
			}
		}
		if lastMove >= 0 && step-lastMove <= cooldown {
			t.Fatalf("step %d: climbed during cooldown (previous move at step %d)", step, lastMove)
		}
		lastMove = step
	}
	if lastMove < 0 {
		t.Fatal("pressure skew never triggered a move")
	}
}

// TestSingleActiveDegenerates checks that when every other tenant departs,
// the surviving slot is rebalanced to the full machine.
func TestSingleActiveDegenerates(t *testing.T) {
	c, err := New(Config{}, mach, EqualSplit(mach))
	if err != nil {
		t.Fatal(err)
	}
	active := []bool{true, false, false, false}
	a, changed := c.Decide(500, ReasonDeparture, sampleSet(c, active, nil, nil))
	if !changed {
		t.Fatal("departure to a single active slot did not rebalance")
	}
	if got := a.SetBounds[1] - a.SetBounds[0]; got != mach.L2Sets {
		t.Fatalf("surviving slot owns %d sets, want all %d", got, mach.L2Sets)
	}
	if got := len(a.SMs[0]); got != mach.NumSMs {
		t.Fatalf("surviving slot owns %d SMs, want all %d", got, mach.NumSMs)
	}
	for i := 1; i < mach.Slots; i++ {
		if len(a.SMs[i]) != 0 || a.SetBounds[i+1] != a.SetBounds[i] {
			t.Fatalf("inactive slot %d still owns resources", i)
		}
	}
}

// TestFrozenNeverChanges checks that a frozen controller ignores pressure
// skew and churn alike.
func TestFrozenNeverChanges(t *testing.T) {
	c, err := New(Config{Frozen: true}, mach, EqualSplit(mach))
	if err != nil {
		t.Fatal(err)
	}
	initial := c.Assignment()
	active := []bool{true, true, true, true}
	var insts, stall [4]int64
	for step := 1; step <= 10; step++ {
		for i := range insts {
			insts[i] += 500
		}
		stall[2] += 1_000_000
		reason := ReasonEpoch
		if step == 5 {
			reason = ReasonDeparture
			active[3] = false
		}
		if _, changed := c.Decide(int64(step*100), reason, sampleSet(c, active, insts[:], stall[:])); changed {
			t.Fatalf("frozen controller changed the assignment at step %d", step)
		}
	}
	after := c.Assignment()
	if !slices.Equal(initial.SetBounds, after.SetBounds) {
		t.Fatal("frozen controller mutated SetBounds")
	}
	if len(c.Decisions()) != 0 {
		t.Fatalf("frozen controller recorded %d decisions", len(c.Decisions()))
	}
}

// TestObjectivesSteerDifferently checks the objectives pick the intended
// receivers: weighted speedup follows translation pressure, fairness and
// max-min follow (lack of) progress.
func TestObjectivesSteerDifferently(t *testing.T) {
	run := func(obj Objective) Assignment {
		c, err := New(Config{Objective: obj}, mach, EqualSplit(mach))
		if err != nil {
			t.Fatal(err)
		}
		active := []bool{true, true, true, true}
		var insts, stall [4]int64
		for step := 1; step <= 6; step++ {
			// Slot 1: high pressure but high progress. Slot 3: slow, no
			// pressure. Others nominal.
			insts[0] += 1000
			insts[1] += 2000
			insts[2] += 1000
			insts[3] += 10
			stall[1] += 5_000_000
			c.Decide(int64(step*100), ReasonEpoch, sampleSet(c, active, insts[:], stall[:]))
		}
		return c.Assignment()
	}
	ws := run(ObjWeightedSpeedup)
	if got := ws.SetBounds[2] - ws.SetBounds[1]; got <= mach.L2Sets/mach.Slots {
		t.Fatalf("ws objective: pressured slot 1 holds %d sets, want more than the equal share %d",
			got, mach.L2Sets/mach.Slots)
	}
	fair := run(ObjFairness)
	if got := fair.SetBounds[4] - fair.SetBounds[3]; got <= mach.L2Sets/mach.Slots {
		t.Fatalf("fairness objective: slow slot 3 holds %d sets, want more than the equal share %d",
			got, mach.L2Sets/mach.Slots)
	}
	mm := run(ObjMaxMin)
	if got := len(mm.SMs[3]); got <= mach.NumSMs/mach.Slots {
		t.Fatalf("maxmin objective: slow slot 3 holds %d SMs, want more than the equal share %d",
			got, mach.NumSMs/mach.Slots)
	}
}

// TestParseRoundTrips checks the name round trips.
func TestParseRoundTrips(t *testing.T) {
	for _, o := range []Objective{ObjWeightedSpeedup, ObjFairness, ObjMaxMin} {
		got, err := ParseObjective(o.String())
		if err != nil || got != o {
			t.Fatalf("ParseObjective(%q) = %v, %v", o.String(), got, err)
		}
	}
	if _, err := ParseObjective("nope"); err == nil {
		t.Fatal("ParseObjective accepted an unknown name")
	}
	for _, r := range []Reason{ReasonEpoch, ReasonArrival, ReasonDeparture} {
		if r.String() == "" {
			t.Fatalf("Reason %d has empty name", int(r))
		}
	}
}

// TestSharedSMsNotManaged checks that overlapping slot SM lists disable SM
// moves but leave set management working.
func TestSharedSMsNotManaged(t *testing.T) {
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	a := EqualSplit(mach)
	a.SMs = [][]int{all, all, all, all}
	c, err := New(Config{}, mach, a)
	if err != nil {
		t.Fatal(err)
	}
	active := []bool{true, false, false, false}
	got, _ := c.Decide(100, ReasonDeparture, sampleSet(c, active, nil, nil))
	for i, sms := range got.SMs {
		if len(sms) != len(all) {
			t.Fatalf("shared SM list of slot %d was rewritten to %d SMs", i, len(sms))
		}
	}
	if got.SetBounds[1]-got.SetBounds[0] != mach.L2Sets {
		t.Fatal("set rebalance should still run with shared SMs")
	}
}
