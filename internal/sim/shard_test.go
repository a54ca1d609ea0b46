package sim

// Tests for the sharded epoch-barrier engine: pass-order and epoch-length
// invariance, the canonical barrier order, and the model-level conservation
// properties shared with the serial engine.

import (
	"bytes"
	"reflect"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/control"
	"gputlb/internal/engine"
	"gputlb/internal/sched"
	"gputlb/internal/stats"
	"gputlb/internal/workloads"
)

// shardedSim builds a simulator over a fresh tinyKernel workload.
func shardedSim(t *testing.T, cfg arch.Config, nTBs, insts int) *Simulator {
	t.Helper()
	k, as := tinyKernel(t, nTBs, insts)
	s, err := New(cfg, k, as)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// snapshotJSON runs the simulator and returns its full registry snapshot as
// canonical JSON bytes.
func snapshotJSON(t *testing.T, s *Simulator) []byte {
	t.Helper()
	r := s.Run()
	var buf bytes.Buffer
	if err := r.Stats.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestShardedCompletesAndConserves(t *testing.T) {
	s := shardedSim(t, arch.Default(), 8, 4)
	s.SetCellParallel(4)
	r := s.Run()
	if r.Cycles <= 0 {
		t.Error("zero execution time")
	}
	// Model-level counts are timing-independent and must match the serial
	// engine's exactly: instructions, coalesced requests, first-touch
	// faults.
	if want := int64(8 * 9); r.InstsIssued != want {
		t.Errorf("InstsIssued = %d, want %d", r.InstsIssued, want)
	}
	if want := int64(8 * 5); r.PageRequests != want {
		t.Errorf("PageRequests = %d, want %d", r.PageRequests, want)
	}
	if r.Faults != 3 {
		t.Errorf("Faults = %d, want 3", r.Faults)
	}
	if r.L1TLBAccesses() != r.PageRequests {
		t.Errorf("L1 TLB accesses %d != page requests %d", r.L1TLBAccesses(), r.PageRequests)
	}
	p := s.Profile()
	if p.Epochs == 0 || p.SlicedOps == 0 || p.SMPassOps == 0 || p.LocalEvents == 0 {
		t.Errorf("empty profile: %+v", p)
	}
	if p.BarrierOps != 0 {
		t.Errorf("BarrierOps = %d, want 0 (every barrier op runs in a slice or SM pass)", p.BarrierOps)
	}
}

// passOrderCase is one configuration of the pass-order checks: build
// returns a fresh simulator, which runs on the sharded engine at the given
// slice count.
type passOrderCase struct {
	name   string
	slices int
	build  func(t *testing.T) *Simulator
}

// tinyCase runs the 20-TB tiny kernel under a config mutation at one slice.
func tinyCase(name string, mut func(*arch.Config)) passOrderCase {
	return passOrderCase{name, 1, func(t *testing.T) *Simulator {
		c := arch.Default()
		mut(&c)
		return shardedSim(t, c, 20, 6)
	}}
}

// suiteTenant returns a small cached suite benchmark as a tenant.
func suiteTenant(t *testing.T, bench string, sms []int) Tenant {
	t.Helper()
	k, as, ok := workloads.CachedByName(bench, workloads.Params{PageShift: 12, Seed: 1, Scale: 0.1})
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	return Tenant{Name: bench, Kernel: k, AS: as, SMs: sms}
}

// bfsCase runs solo bfs under a config mutation at K=4.
func bfsCase(name string, mut func(*arch.Config)) passOrderCase {
	return passOrderCase{name, 4, func(t *testing.T) *Simulator {
		c := arch.Default()
		mut(&c)
		tn := suiteTenant(t, "bfs", nil)
		s, err := New(c, tn.Kernel, tn.AS)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}}
}

// coRunSim builds a bfs+atax co-run on a spatial SM split.
func coRunSim(t *testing.T, mopt MultiOptions) *Simulator {
	t.Helper()
	cfg := arch.Default()
	assign := sched.AssignSMs(sched.AssignSpatial, cfg.NumSMs, 2)
	s, err := NewMulti(cfg, []Tenant{suiteTenant(t, "bfs", assign[0]), suiteTenant(t, "atax", assign[1])}, mopt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// passOrderCases: the tiny kernel under each scheduler feature that changes
// the engine's event mix, then, at K=4, bfs, a dynamically partitioned
// co-run, the controller with tenant churn, and a non-base mechanism.
var passOrderCases = []passOrderCase{
	tinyCase("default", func(*arch.Config) {}),
	tinyCase("tlbAwareSched", func(c *arch.Config) { c.TBScheduler = arch.ScheduleTLBAware }),
	tinyCase("transAwareWarps", func(c *arch.Config) { c.WarpScheduler = arch.WarpTransAware }),
	bfsCase("bfsK4", func(*arch.Config) {}),
	{"dynamicSpatial", 4, func(t *testing.T) *Simulator {
		return coRunSim(t, MultiOptions{L2TLBPolicy: arch.IndexByTBShared})
	}},
	{"churnController", 4, func(t *testing.T) *Simulator {
		spec := &ChurnSpec{QueueCap: 1}
		for _, a := range []struct {
			bench string
			at    engine.Cycle
		}{{"mis", 3000}, {"mvt", 6000}} {
			spec.Arrivals = append(spec.Arrivals, ChurnArrival{Tenant: suiteTenant(t, a.bench, nil), At: a.at})
		}
		s := coRunSim(t, MultiOptions{L2TLBPolicy: arch.IndexByTB, Churn: spec})
		if _, err := s.AttachController(control.Config{Period: 512}); err != nil {
			t.Fatal(err)
		}
		return s
	}},
	bfsCase("subentry", func(c *arch.Config) { c.TLBMech = "subentry" }),
}

// appliedOp is one op a slice pass replayed: (request cycle, shard, seq).
type appliedOp struct {
	t     engine.Cycle
	shard int
	seq   int64
}

// passOrderRun is what one sharded run shows the pass-order checks: its
// stats snapshot, its trace stream, and each slice pass's apply order.
type passOrderRun struct {
	stats, trace []byte
	applied      [][]appliedOp
}

// runInPassOrder runs s on the sharded engine at the given slice count,
// with every fan-out visiting its items in order k.
func runInPassOrder(t *testing.T, s *Simulator, slices int, k passOrderKind, seed int64) passOrderRun {
	t.Helper()
	s.SetCellParallel(2)
	s.SetL2Slices(slices)
	s.setPassOrder(k, seed)
	var run passOrderRun
	s.SetSliceApplyObserver(func(slice int, c engine.Cycle, shard int, seq int64) {
		for len(run.applied) <= slice {
			run.applied = append(run.applied, nil)
		}
		run.applied[slice] = append(run.applied[slice], appliedOp{c, shard, seq})
	})
	tr := stats.NewTracer(1 << 18)
	s.SetTracer(tr, 0)
	r := s.Run()
	if tr.Dropped() > 0 {
		t.Fatalf("tracer dropped %d events", tr.Dropped())
	}
	var sb, tb bytes.Buffer
	if err := r.Stats.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	run.stats, run.trace = sb.Bytes(), tb.Bytes()
	return run
}

// otherPassOrders are the non-forward orders every check compares against
// the forward one: reversed, and a seeded shuffle.
var otherPassOrders = []struct {
	kind passOrderKind
	seed int64
}{{passReverse, 0}, {passShuffled, 1}}

// TestShardedWorkerCountInvariance is the core determinism property: every
// phase-1 step, slice pass and SM pass touches only state its own item
// owns, so running each fan-out forward, reversed or shuffled gives a
// byte-identical stats snapshot, trace stream and per-slice apply order.
// That is what makes the result independent of how many workers could run
// the items, and each slice a pure function of the canonical op stream.
func TestShardedWorkerCountInvariance(t *testing.T) {
	for _, c := range passOrderCases {
		t.Run(c.name, func(t *testing.T) {
			want := runInPassOrder(t, c.build(t), c.slices, passForward, 0)
			for _, o := range otherPassOrders {
				got := runInPassOrder(t, c.build(t), c.slices, o.kind, o.seed)
				if !bytes.Equal(got.stats, want.stats) {
					t.Errorf("%v (seed %d): stats snapshot diverged from forward", o.kind, o.seed)
				}
				if !bytes.Equal(got.trace, want.trace) {
					t.Errorf("%v (seed %d): trace stream diverged from forward", o.kind, o.seed)
				}
				if !reflect.DeepEqual(got.applied, want.applied) {
					t.Errorf("%v (seed %d): slice apply order diverged from forward", o.kind, o.seed)
				}
			}
		})
	}
}

// TestShardedEpochLengthInvariance: the barrier applies ops in an order
// that is a pure function of (cycle, SM index, sequence), and epochs never
// cross dispatch boundaries or global events, so the simulated outcome
// cannot depend on the epoch length.
func TestShardedEpochLengthInvariance(t *testing.T) {
	run := func(epoch engine.Cycle) []byte {
		s := shardedSim(t, arch.Default(), 20, 6)
		s.SetCellParallel(3)
		s.SetEpochLength(epoch)
		return snapshotJSON(t, s)
	}
	want := run(0) // default: 2*InterconnectLatency
	for _, e := range []engine.Cycle{1, 5, 17, 40, 1000 /* capped to default */} {
		if got := run(e); !bytes.Equal(got, want) {
			t.Errorf("snapshot diverged at epoch length %d", e)
		}
	}
}

// TestShardedCanonicalApplyOrder: each slice pass's observed op stream is
// strictly increasing in (cycle, SM index, per-shard sequence) and is
// identical whichever order the passes run in.
func TestShardedCanonicalApplyOrder(t *testing.T) {
	const slices = 4
	s := shardedSim(t, arch.Default(), 16, 5)
	want := runInPassOrder(t, s, slices, passForward, 0).applied
	if k := s.L2Slices(); k != slices || len(want) != slices {
		t.Fatalf("ran with %d slices (%d observed), want %d", k, len(want), slices)
	}
	for sl, ops := range want {
		if len(ops) == 0 {
			t.Fatalf("slice %d: no ops observed", sl)
		}
		for i := 1; i < len(ops); i++ {
			a, b := ops[i-1], ops[i]
			inOrder := a.t < b.t || (a.t == b.t && a.shard < b.shard) ||
				(a.t == b.t && a.shard == b.shard && a.seq < b.seq)
			if !inOrder {
				t.Fatalf("slice %d: op %d out of canonical order: %+v then %+v", sl, i, a, b)
			}
		}
	}
	for _, o := range otherPassOrders {
		got := runInPassOrder(t, shardedSim(t, arch.Default(), 16, 5), slices, o.kind, o.seed).applied
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v (seed %d): apply order diverged from forward", o.kind, o.seed)
		}
	}
}

// TestShardedMatchesSerialInvariants: quantities fixed by the workload —
// not by timing — agree between the two engines, and per-component counter
// sums balance within each.
func TestShardedMatchesSerialInvariants(t *testing.T) {
	serial := shardedSim(t, arch.Default(), 20, 6)
	rs := serial.Run()
	sharded := shardedSim(t, arch.Default(), 20, 6)
	sharded.SetCellParallel(4)
	rp := sharded.Run()

	if rs.InstsIssued != rp.InstsIssued {
		t.Errorf("InstsIssued: serial %d, sharded %d", rs.InstsIssued, rp.InstsIssued)
	}
	if rs.PageRequests != rp.PageRequests {
		t.Errorf("PageRequests: serial %d, sharded %d", rs.PageRequests, rp.PageRequests)
	}
	if rs.LineRequests != rp.LineRequests {
		t.Errorf("LineRequests: serial %d, sharded %d", rs.LineRequests, rp.LineRequests)
	}
	if rs.Faults != rp.Faults {
		t.Errorf("Faults: serial %d, sharded %d", rs.Faults, rp.Faults)
	}
	for _, r := range []struct {
		name string
		r    Result
	}{{"serial", rs}, {"sharded", rp}} {
		if got := r.r.L1TLBAccesses(); got != r.r.PageRequests {
			t.Errorf("%s: L1 TLB accesses %d != page requests %d", r.name, got, r.r.PageRequests)
		}
		var hist int64
		for _, b := range r.r.TranslationLatency {
			hist += b
		}
		if hist != r.r.PageRequests {
			t.Errorf("%s: translation histogram count %d != page requests %d", r.name, hist, r.r.PageRequests)
		}
		tbs := 0
		for _, n := range r.r.TBsPerSM {
			tbs += n
		}
		if tbs != 20 {
			t.Errorf("%s: TBs run %d, want 20", r.name, tbs)
		}
	}
}

// TestShardedPhases: a phase-barrier kernel completes under the sharded
// engine with phases still serialized (no TB of phase 1 starts before
// phase 0 drains).
func TestShardedPhases(t *testing.T) {
	k, as := tinyKernel(t, 12, 3)
	k.PhaseStarts = []int{6}
	s, err := New(arch.Default(), k, as)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCellParallel(4)
	r := s.Run()
	if want := int64(12 * 7); r.InstsIssued != want {
		t.Errorf("InstsIssued = %d, want %d", r.InstsIssued, want)
	}
}
