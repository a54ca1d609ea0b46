package simtest

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"gputlb/internal/engine"
	"gputlb/internal/sim"
	"gputlb/internal/stats"
)

// Build constructs a fresh simulator for one determinism trial. The harness
// calls it once per matrix cell: a Simulator runs exactly once, so reuse
// would alias state across cells.
type Build func() (*sim.Simulator, error)

// traceCapacity bounds the harness tracer's ring. Trials that overflow it
// still compare deterministically (the ring keeps the newest events), but
// the matrices below stay far under it.
const traceCapacity = 1 << 18

// Run executes one trial on the sharded engine: a freshly built simulator
// with the given L2 slice count (0 or 1 is one slice) and epoch-length
// override (0 keeps the default), returning the run's Result, its full
// stats registry as canonical JSON, and — when withTrace is set — the
// complete trace event stream as Chrome trace JSON.
func Run(b Build, slices int, epoch engine.Cycle, withTrace bool) (sim.Result, []byte, []byte, error) {
	return run(b, func(s *sim.Simulator) {
		s.SetCellParallel(2) // every n >= 2 selects the sharded engine
		s.SetL2Slices(slices)
		if epoch > 0 {
			s.SetEpochLength(epoch)
		}
	}, withTrace)
}

// RunSerial executes one trial on the serial engine, returning the run's
// Result and its stats registry as canonical JSON.
func RunSerial(b Build) (sim.Result, []byte, error) {
	r, st, _, err := run(b, func(*sim.Simulator) {}, false)
	return r, st, err
}

// run builds a simulator, lets setup pick its engine, and runs it.
func run(b Build, setup func(*sim.Simulator), withTrace bool) (sim.Result, []byte, []byte, error) {
	s, err := b()
	if err != nil {
		return sim.Result{}, nil, nil, err
	}
	setup(s)
	var tr *stats.Tracer
	if withTrace {
		tr = stats.NewTracer(traceCapacity)
		s.SetTracer(tr, 0)
	}
	r := s.Run()
	var statsBuf bytes.Buffer
	if err := r.Stats.WriteJSON(&statsBuf); err != nil {
		return sim.Result{}, nil, nil, err
	}
	var traceBuf bytes.Buffer
	if withTrace {
		if tr.Dropped() > 0 {
			return sim.Result{}, nil, nil, fmt.Errorf("simtest: tracer dropped %d events; raise traceCapacity", tr.Dropped())
		}
		if err := tr.WriteChromeTrace(&traceBuf); err != nil {
			return sim.Result{}, nil, nil, err
		}
	}
	return r, statsBuf.Bytes(), traceBuf.Bytes(), nil
}

// How many copies of a cell CheckConcurrentCells runs at once (one per
// sweep worker on the 2-core reference host), and at which slice count
// (the -l2-slices default).
const (
	concurrentCopies = 2
	concurrentSlices = 4
)

// CheckConcurrentCells runs b alone on the sharded engine, then runs copies
// of it at once on their own goroutines, the way the sweep's workers run
// cells, and fails t unless every copy's stats snapshot and full trace
// stream are byte-identical to the lone run's. Cells built from the trace
// cache share its kernels and address spaces, so this catches a run that
// writes into shared state; under -race it also catches one that only
// reads what another writes.
func CheckConcurrentCells(t testing.TB, b Build) {
	t.Helper()
	_, wantStats, wantTrace, err := Run(b, concurrentSlices, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		stats, trace []byte
		err          error
	}
	out := make([]outcome, concurrentCopies)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, st, tr, err := Run(b, concurrentSlices, 0, true)
			out[i] = outcome{st, tr, err}
		}()
	}
	wg.Wait()
	for i, o := range out {
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !bytes.Equal(o.stats, wantStats) {
			t.Errorf("concurrent copy %d: stats snapshot diverged from the lone run (%d vs %d bytes)",
				i, len(o.stats), len(wantStats))
		}
		if !bytes.Equal(o.trace, wantTrace) {
			t.Errorf("concurrent copy %d: trace stream diverged from the lone run (%d vs %d bytes)",
				i, len(o.trace), len(wantTrace))
		}
	}
}

// CheckEpochInvariance runs b on the sharded engine at a fixed slice count
// across the given epoch-length overrides (0 means the engine default;
// nil is {0, 1, 7, 40}) and fails t unless every stats snapshot is
// byte-identical: the barrier's canonical order and the lookahead bound
// make the outcome independent of where the epoch boundaries fall. Traces
// are not compared: phase-1 trace events are flushed at each barrier, so
// their order follows the epochs.
func CheckEpochInvariance(t testing.TB, b Build, slices int, epochs []engine.Cycle) {
	t.Helper()
	if len(epochs) == 0 {
		epochs = []engine.Cycle{0, 1, 7, 40}
	}
	_, want, _, err := Run(b, slices, epochs[0], false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range epochs[1:] {
		_, got, _, err := Run(b, slices, e, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("slices=%d: stats snapshot diverged: epoch=%d vs epoch=%d", slices, e, epochs[0])
		}
	}
}

// SliceMatrix returns the stock L2 slice-count matrix for the barrier:
// every power of two the default geometry supports, one slice included.
// Each K is its own legal serialization: results compare within a K, never
// across two.
func SliceMatrix() []int { return []int{1, 2, 4, 8} }

// CheckSerialUnchanged runs b twice on the serial engine and fails t
// unless the two snapshots agree — guarding that the serial path stays
// deterministic with the sharded machinery compiled in.
func CheckSerialUnchanged(t testing.TB, b Build) {
	t.Helper()
	_, a, err := RunSerial(b)
	if err != nil {
		t.Fatal(err)
	}
	_, c, err := RunSerial(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Error("two serial runs diverged")
	}
}
