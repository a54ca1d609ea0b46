package simtest

import (
	"bytes"
	"fmt"
	"runtime"
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

// Run executes one trial: a freshly built simulator at the given cell
// parallelism and epoch-length override (0 keeps the default), returning
// the run's Result, its full stats registry as canonical JSON, and — when
// withTrace is set — the complete trace event stream as Chrome trace JSON.
func Run(b Build, cellParallel int, epoch engine.Cycle, withTrace bool) (sim.Result, []byte, []byte, error) {
	return RunSliced(b, cellParallel, 1, epoch, withTrace)
}

// RunSliced is Run with an explicit L2 slice count for the sharded engine's
// barrier (1 is one slice and is identical to Run).
func RunSliced(b Build, cellParallel, slices int, epoch engine.Cycle, withTrace bool) (sim.Result, []byte, []byte, error) {
	s, err := b()
	if err != nil {
		return sim.Result{}, nil, nil, err
	}
	s.SetCellParallel(cellParallel)
	s.SetL2Slices(slices)
	if epoch > 0 {
		s.SetEpochLength(epoch)
	}
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

// WorkerMatrix returns the stock cell-parallelism matrix for the sharded
// engine: {2, 3, 8, GOMAXPROCS}, deduplicated, every value >= 2 so all
// cells run the same engine. (Cell parallelism 1 selects the serial engine,
// whose byte-identity is pinned against the committed golden stats
// instead.)
func WorkerMatrix() []int {
	ws := []int{2, 3, 8}
	if p := runtime.GOMAXPROCS(0); p >= 2 {
		seen := false
		for _, w := range ws {
			if w == p {
				seen = true
			}
		}
		if !seen {
			ws = append(ws, p)
		}
	}
	return ws
}

// CheckWorkerInvariance runs b across the given cell-parallelism values
// (WorkerMatrix() when nil) and fails t unless every run's stats snapshot —
// and, with withTrace, its full trace stream — is byte-identical to the
// first's. This is the sharded engine's core determinism property: workers
// only choose which goroutine advances a shard.
func CheckWorkerInvariance(t testing.TB, b Build, workers []int, withTrace bool) {
	t.Helper()
	if workers == nil {
		workers = WorkerMatrix()
	}
	if len(workers) < 2 {
		t.Fatalf("simtest: worker matrix %v has fewer than 2 cells", workers)
	}
	_, wantStats, wantTrace, err := Run(b, workers[0], 0, withTrace)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers[1:] {
		_, gotStats, gotTrace, err := Run(b, w, 0, withTrace)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotStats, wantStats) {
			t.Errorf("stats snapshot diverged: cellParallel=%d vs cellParallel=%d (%d vs %d bytes)",
				w, workers[0], len(gotStats), len(wantStats))
		}
		if withTrace && !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("trace stream diverged: cellParallel=%d vs cellParallel=%d (%d vs %d bytes)",
				w, workers[0], len(gotTrace), len(wantTrace))
		}
	}
}

// CheckEpochInvariance runs b at fixed cell parallelism across the given
// epoch-length overrides (0 means the engine default) and fails t unless
// every stats snapshot is byte-identical: the barrier's canonical order and
// the lookahead bound make the outcome independent of where the epoch
// boundaries fall.
func CheckEpochInvariance(t testing.TB, b Build, cellParallel int, epochs []engine.Cycle) {
	t.Helper()
	if len(epochs) == 0 {
		epochs = []engine.Cycle{0, 1, 7, 40}
	}
	_, want, _, err := Run(b, cellParallel, epochs[0], false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range epochs[1:] {
		_, got, _, err := Run(b, cellParallel, e, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("stats snapshot diverged: epoch=%d vs epoch=%d", e, epochs[0])
		}
	}
}

// SliceMatrix returns the stock L2 slice-count matrix for the barrier:
// every power of two the default geometry supports, one slice included.
func SliceMatrix() []int { return []int{1, 2, 4, 8} }

// CheckSliceInvariance runs b at a fixed slice count across every
// (cellParallel, epoch) combination and fails t unless all stats snapshots
// — and, with withTrace, the trace streams — are byte-identical to the
// first's. This is the sliced barrier's determinism property: for a fixed
// K, the result is a pure function of the canonical op stream, independent
// of worker count and epoch length. (Epoch overrides are skipped for the
// trace comparison cells: traces are compared across workers only.)
func CheckSliceInvariance(t testing.TB, b Build, slices int, workers []int, epochs []engine.Cycle, withTrace bool) {
	t.Helper()
	if workers == nil {
		workers = WorkerMatrix()
	}
	if len(epochs) == 0 {
		epochs = []engine.Cycle{0, 1, 7, 40}
	}
	_, wantStats, wantTrace, err := RunSliced(b, workers[0], slices, 0, withTrace)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers[1:] {
		_, gotStats, gotTrace, err := RunSliced(b, w, slices, 0, withTrace)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotStats, wantStats) {
			t.Errorf("slices=%d: stats snapshot diverged: cellParallel=%d vs cellParallel=%d",
				slices, w, workers[0])
		}
		if withTrace && !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("slices=%d: trace stream diverged: cellParallel=%d vs cellParallel=%d",
				slices, w, workers[0])
		}
	}
	for _, e := range epochs {
		if e == 0 {
			continue
		}
		_, gotStats, _, err := RunSliced(b, workers[0], slices, e, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotStats, wantStats) {
			t.Errorf("slices=%d: stats snapshot diverged: epoch=%d vs default", slices, e)
		}
	}
}

// CheckSerialUnchanged runs b twice at cell parallelism 1 (the serial
// engine) and fails t unless the two snapshots agree — the degenerate
// matrix cell guarding that the serial path stays deterministic with the
// sharded machinery compiled in.
func CheckSerialUnchanged(t testing.TB, b Build) {
	t.Helper()
	_, a, _, err := Run(b, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	_, c, _, err := Run(b, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Error("two serial (cellParallel=1) runs diverged")
	}
}
