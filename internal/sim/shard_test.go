package sim

// Tests for the sharded epoch-barrier engine: worker-count and epoch-length
// invariance, the canonical barrier order, and the model-level conservation
// properties shared with the serial engine.

import (
	"bytes"
	"runtime"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/engine"
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

// TestShardedWorkerCountInvariance is the core determinism property: the
// sharded engine's full registry snapshot is byte-identical at every worker
// count, because workers only choose which goroutine advances a shard.
func TestShardedWorkerCountInvariance(t *testing.T) {
	for _, cfg := range []struct {
		name string
		mut  func(*arch.Config)
	}{
		{"default", func(*arch.Config) {}},
		{"tlbAwareSched", func(c *arch.Config) { c.TBScheduler = arch.ScheduleTLBAware }},
		{"transAwareWarps", func(c *arch.Config) { c.WarpScheduler = arch.WarpTransAware }},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			c := arch.Default()
			cfg.mut(&c)
			run := func(workers int) []byte {
				s := shardedSim(t, c, 20, 6)
				s.SetCellParallel(2) // engine selection; worker count set below
				r := s.RunShardedWorkers(workers)
				var buf bytes.Buffer
				if err := r.Stats.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			want := run(1)
			for _, w := range []int{2, 3, 8, runtime.GOMAXPROCS(0)} {
				if got := run(w); !bytes.Equal(got, want) {
					t.Errorf("%s: snapshot diverged at %d workers", cfg.name, w)
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
// identical across worker counts.
func TestShardedCanonicalApplyOrder(t *testing.T) {
	const slices = 4
	type applied struct {
		t     engine.Cycle
		shard int
		seq   int64
	}
	run := func(workers int) [][]applied {
		s := shardedSim(t, arch.Default(), 16, 5)
		s.SetCellParallel(2)
		s.SetL2Slices(slices)
		got := make([][]applied, slices)
		s.SetSliceApplyObserver(func(slice int, t engine.Cycle, shard int, seq int64) {
			got[slice] = append(got[slice], applied{t, shard, seq})
		})
		s.RunShardedWorkers(workers)
		if k := s.L2Slices(); k != slices {
			t.Fatalf("ran with %d slices, want %d", k, slices)
		}
		return got
	}
	want := run(1)
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
	for _, w := range []int{2, 8} {
		got := run(w)
		for sl := range got {
			if len(got[sl]) != len(want[sl]) {
				t.Fatalf("workers=%d slice %d: %d ops, want %d", w, sl, len(got[sl]), len(want[sl]))
			}
			for i := range got[sl] {
				if got[sl][i] != want[sl][i] {
					t.Fatalf("workers=%d slice %d: op %d = %+v, want %+v", w, sl, i, got[sl][i], want[sl][i])
				}
			}
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
