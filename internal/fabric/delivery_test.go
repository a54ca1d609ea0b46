package fabric

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gputlb/internal/jobs"
)

// The worker's delivery loop, checked over both transports: the
// in-process worker (its flush is the coordinator's ingest path) and a
// remote one (its flush is a POST to /results).

// waitFor polls cond until it holds, failing the test after a minute.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLocalWorkerGroupCommits: while the in-process worker's first
// journal append is held, two more cells finish; they wait for one group
// commit instead of journaling one by one, and land in one AppendCells.
func TestLocalWorkerGroupCommits(t *testing.T) {
	c, err := NewCoordinator(fastOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	// Three runners start three cells; the runners of the second and
	// third finished cells go on to start the fourth and fifth, which wait
	// for rest, so a fifth start means both outcomes have been handed over.
	rest := make(chan struct{})
	var started atomic.Int32
	c.AddLocalWorker(WorkerOptions{Parallelism: 3, InjectCellError: func(jobs.CellSpec, int) error {
		if started.Add(1) > 3 {
			<-rest
		}
		return nil
	}})
	held, release := make(chan struct{}), make(chan struct{})
	var appends atomic.Int32
	c.afterJournal = func(string) {
		if appends.Add(1) == 1 {
			close(held)
			<-release
		}
	}
	c.Start()
	defer drainNow(t, c)
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax", "mvt"}, Configs: []string{"baseline", "sched", "sched+part"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	<-held
	waitFor(t, "five cell starts", func() bool { return started.Load() >= 5 })
	if n := appends.Load(); n != 1 {
		t.Errorf("%d journal appends while the first was held, want 1 (the finished cells wait for one group commit)", n)
	}
	close(release)
	waitFor(t, "three journaled cells", func() bool {
		st, _ := c.Job(id)
		return appends.Load() >= 2 && st.CellsDone >= 3
	})
	if n := appends.Load(); n != 2 {
		t.Errorf("three cells took %d journal appends, want 2 (the two held back land in one)", n)
	}
	close(rest)
	if st := waitJob(t, c, id); st.State != jobs.StateDone {
		t.Fatalf("job = %s (%s), want done", st.State, st.Error)
	}
	// The job is done inside its last flush; draining waits for the flush
	// to return and be counted.
	drainNow(t, c)
	if got, ok := c.MetricsSnapshot().CounterAt("worker/result_flushes"); !ok || got != int64(appends.Load()) {
		t.Errorf("worker/result_flushes = %d (registered %v), want %d, one per journal group commit", got, ok, appends.Load())
	}
}

// flushRig is one worker of either transport joined to a real
// coordinator, its flush wrapped to record each batch's size and to hold
// the first batch until release is closed.
type flushRig struct {
	c       *Coordinator
	w       *Worker
	held    chan struct{}
	release chan struct{}

	mu    sync.Mutex
	sizes []int
}

// newFlushRig starts a coordinator and one worker over transport
// ("local" or "remote") running opt.
func newFlushRig(t *testing.T, transport string, opt WorkerOptions) *flushRig {
	t.Helper()
	r := &flushRig{held: make(chan struct{}), release: make(chan struct{})}
	wrap := func(w *Worker) {
		inner := w.flush
		w.flush = func(batch []CellOutcome) error {
			r.mu.Lock()
			r.sizes = append(r.sizes, len(batch))
			first := len(r.sizes) == 1
			r.mu.Unlock()
			if first {
				close(r.held)
				<-r.release
			}
			return inner(batch)
		}
		r.w = w
	}
	switch transport {
	case "local":
		c, err := NewCoordinator(fastOpts(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		c.AddLocalWorker(opt)
		wrap(c.local)
		c.Start()
		t.Cleanup(func() { drainNow(t, c) })
		r.c = c
	case "remote":
		c, srv := startCoordinator(t, fastOpts(t.TempDir()))
		tw := startWorkerOpts(t, srv.URL, opt, wrap)
		t.Cleanup(tw.stop)
		r.c = c
	default:
		t.Fatalf("unknown transport %q", transport)
	}
	return r
}

func (r *flushRig) flushSizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.sizes...)
}

// queued is how many outcomes wait in the worker's outbox.
func (r *flushRig) queued() int {
	r.w.outMu.Lock()
	defer r.w.outMu.Unlock()
	return len(r.w.outbox)
}

// failFast fails every attempt at once, so a cell's outcome is ready
// without a simulation.
func failFast(jobs.CellSpec, int) error { return errors.New("injected failure") }

var transports = []string{"local", "remote"}

// TestWorkerFlushesLoneOutcomeAtOnce: an idle worker's only outcome is
// flushed by itself, with nothing else to wait for — no timer, no
// batch to fill.
func TestWorkerFlushesLoneOutcomeAtOnce(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			r := newFlushRig(t, tr, WorkerOptions{Parallelism: 1})
			close(r.release)
			id, err := r.c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			if st := waitJob(t, r.c, id); st.State != jobs.StateDone {
				t.Fatalf("job = %s (%s), want done", st.State, st.Error)
			}
			if got := r.flushSizes(); fmt.Sprint(got) != "[1]" {
				t.Errorf("flush sizes = %v, want [1]", got)
			}
		})
	}
}

// TestWorkerFlushCapsAtFlushSize: a backlog larger than flushSize goes
// out in flushSize-sized flushes, in order, and nothing is lost. Twenty
// runners hold 40 leases, so 39 outcomes pile up behind the held first
// flush.
func TestWorkerFlushCapsAtFlushSize(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			r := newFlushRig(t, tr, WorkerOptions{Parallelism: 20, MaxAttempts: 1, InjectCellError: failFast})
			spec := jobs.JobSpec{Configs: []string{"baseline", "sched", "sched+part", "sched+part+share"}, Scale: 0.1}
			id, err := r.c.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			<-r.held
			waitFor(t, "39 queued outcomes", func() bool { return r.queued() == 39 })
			close(r.release)
			st := waitJob(t, r.c, id)
			if st.CellsFailed != 40 {
				t.Fatalf("job = %s with %d failed cells, want all 40", st.State, st.CellsFailed)
			}
			if got, want := r.flushSizes(), fmt.Sprint([]int{1, flushSize, 39 - flushSize}); fmt.Sprint(got) != want {
				t.Errorf("flush sizes = %v, want %s", got, want)
			}
		})
	}
}

// TestWorkerCloseFlushesRemainder: Close returns only once every queued
// outcome has been flushed, the ones behind a flush in flight included.
func TestWorkerCloseFlushesRemainder(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) {
			r := newFlushRig(t, tr, WorkerOptions{Parallelism: 2, MaxAttempts: 1, InjectCellError: failFast})
			if _, err := r.c.Submit(jobs.JobSpec{Benchmarks: []string{"atax", "mvt"}, Configs: []string{"baseline", "sched", "sched+part"}, Scale: 0.1}); err != nil {
				t.Fatal(err)
			}
			<-r.held
			// Two runners hold four leases: three outcomes queue behind the
			// first flush.
			waitFor(t, "3 queued outcomes", func() bool { return r.queued() == 3 })
			closed := make(chan struct{})
			go func() {
				r.w.Close()
				close(closed)
			}()
			// Release the held flush only once Close has cancelled the
			// worker, so no runner starts a cell the flushes free a lease for.
			waitFor(t, "Close to cancel the worker", func() bool { return r.w.ctx.Err() != nil })
			close(r.release)
			<-closed
			if got := r.flushSizes(); fmt.Sprint(got) != "[1 3]" {
				t.Errorf("flush sizes = %v, want [1 3]", got)
			}
			if n := r.queued(); n != 0 {
				t.Errorf("%d outcomes left unflushed after Close", n)
			}
		})
	}
}
