package fabric

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gputlb/internal/jobs"
)

// Several jobs active at once: the coordinator activates the next queued
// job while a worker has lease room the active jobs cannot fill, and
// leasing, caching, journaling, failure and Drain all work per job.

// twoCellSpec is a two-cell job on one benchmark.
func twoCellSpec(bench string) jobs.JobSpec {
	return jobs.JobSpec{Benchmarks: []string{bench}, Configs: []string{"baseline", "sched"}, Scale: 0.1}
}

// cellGate holds cell starts until it is opened.
type cellGate struct {
	release chan struct{}
	once    sync.Once
}

// newCellGate returns a closed gate that opens when the test ends.
func newCellGate(t *testing.T) *cellGate {
	g := &cellGate{release: make(chan struct{})}
	t.Cleanup(g.open)
	return g
}

func (g *cellGate) open() { g.once.Do(func() { close(g.release) }) }

// hook returns a fault-injection hook that lets the first free cell
// starts through and holds every later one until the gate opens, and the
// counter of its calls.
func (g *cellGate) hook(free int32) (func(jobs.CellSpec, int) error, *atomic.Int32) {
	var started atomic.Int32
	return func(jobs.CellSpec, int) error {
		if started.Add(1) > free {
			<-g.release
		}
		return nil
	}, &started
}

// worker starts a remote worker of parallelism runners joined to url
// whose cell starts pass through hook(free), and its start counter. When
// the test ends the gate opens and the worker stops.
func (g *cellGate) worker(t *testing.T, url string, parallelism int, free int32) (*testWorker, *atomic.Int32) {
	hook, started := g.hook(free)
	tw := startWorkerOpts(t, url, WorkerOptions{Parallelism: parallelism, InjectCellError: hook}, nil)
	t.Cleanup(func() {
		g.open()
		tw.stop()
	})
	return tw, started
}

// leasedJobs returns, per worker id, the jobs whose cells it leases.
func leasedJobs(c *Coordinator) map[string]map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]map[string]bool{}
	for id, ws := range c.workers {
		out[id] = map[string]bool{}
		for k := range ws.leased {
			out[id][k.job] = true
		}
	}
	return out
}

func jobsActive(c *Coordinator) float64 {
	v, _ := c.MetricsSnapshot().GaugeAt("jobs/jobs_active")
	return v
}

// submit submits spec to c, failing the test on error.
func submit(t *testing.T, c *Coordinator, spec jobs.JobSpec) string {
	t.Helper()
	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestJobsRunConcurrentlyAcrossWorkers: two workers of one runner each
// and two queued two-cell jobs. The first job fills the first worker's
// lease room, so the second job is activated for the second worker, and
// both workers hold a different job's leases at once.
func TestJobsRunConcurrentlyAcrossWorkers(t *testing.T) {
	specA, specB := twoCellSpec("atax"), twoCellSpec("mvt")
	c, srv := startCoordinator(t, fastOpts(t.TempDir()))
	gate := newCellGate(t)
	var starts [2]*atomic.Int32
	for i := range starts {
		_, starts[i] = gate.worker(t, srv.URL, 1, 0)
	}
	idA, idB := submit(t, c, specA), submit(t, c, specB)

	waitFor(t, "both workers running a cell", func() bool { return starts[0].Load() >= 1 && starts[1].Load() >= 1 })
	held := leasedJobs(c)
	if len(held) != 2 || len(held["w-0001"]) != 1 || len(held["w-0002"]) != 1 {
		t.Fatalf("leases by worker = %v, want each worker holding one job's cells", held)
	}
	if held["w-0001"][idA] == held["w-0002"][idA] {
		t.Fatalf("leases by worker = %v, want %s and %s on different workers", held, idA, idB)
	}
	if n := jobsActive(c); n != 2 {
		t.Errorf("jobs/jobs_active = %v, want 2", n)
	}
	gate.open()
	for id, spec := range map[string]jobs.JobSpec{idA: specA, idB: specB} {
		if st := waitJob(t, c, id); st.State != jobs.StateDone {
			t.Fatalf("job %s = %s (%s), want done", id, st.State, st.Error)
		}
		if got, err := c.Result(id); err != nil || !bytes.Equal(got, inProcessResult(t, spec)) {
			t.Errorf("job %s result differs from the in-process one (err %v)", id, err)
		}
	}
	if n := jobsActive(c); n != 0 {
		t.Errorf("jobs/jobs_active = %v after both jobs finished, want 0", n)
	}
}

// TestIdenticalJobsSimulateOnce: two identical jobs submitted back to
// back are active together, but the second job's cells wait for the
// first job's leases instead of being simulated again, and are then
// served from the result cache.
func TestIdenticalJobsSimulateOnce(t *testing.T) {
	spec := twoCellSpec("atax")
	want := inProcessResult(t, spec)
	c, srv := startCoordinator(t, fastOpts(t.TempDir()))
	gate := newCellGate(t)
	_, started := gate.worker(t, srv.URL, 2, 0)

	idA, idB := submit(t, c, spec), submit(t, c, spec)
	waitFor(t, "both jobs running with the first job's cells started", func() bool {
		a, _ := c.Job(idA)
		b, _ := c.Job(idB)
		return a.State == jobs.StateRunning && b.State == jobs.StateRunning && started.Load() >= 2
	})
	gate.open()
	for _, id := range []string{idA, idB} {
		if st := waitJob(t, c, id); st.State != jobs.StateDone {
			t.Fatalf("job %s = %s (%s), want done", id, st.State, st.Error)
		}
		if got, err := c.Result(id); err != nil || !bytes.Equal(got, want) {
			t.Errorf("job %s result differs from the in-process one (err %v)", id, err)
		}
	}
	if n := started.Load(); n != 2 {
		t.Errorf("the worker ran %d cells, want 2 (one job's worth)", n)
	}
	snap := c.MetricsSnapshot()
	for path, want := range map[string]int64{"fabric/cells_dispatched": 2, "result_cache/hits": 2, "fabric/cells_from_cache": 2} {
		if got, _ := snap.CounterAt(path); got != want {
			t.Errorf("%s = %d, want %d", path, got, want)
		}
	}
}

// TestDrainCheckpointsEveryActiveJob drains a coordinator while two jobs
// are active, each with one journaled cell and one held on its worker. A
// coordinator restarted on the directory resumes both, re-running only
// the unjournaled cells, and both results are byte-identical to
// in-process runs.
func TestDrainCheckpointsEveryActiveJob(t *testing.T) {
	specs := []jobs.JobSpec{twoCellSpec("atax"), twoCellSpec("mvt")}
	dir := t.TempDir()
	c1, srv1 := startCoordinator(t, fastOpts(dir))
	gate := newCellGate(t)
	var workers []*testWorker
	for range specs {
		tw, _ := gate.worker(t, srv1.URL, 1, 1)
		workers = append(workers, tw)
	}
	var ids []string
	for _, spec := range specs {
		ids = append(ids, submit(t, c1, spec))
	}
	waitFor(t, "one journaled cell in each job", func() bool {
		for _, id := range ids {
			if st, _ := c1.Job(id); st.CellsDone < 1 {
				return false
			}
		}
		return true
	})
	drainNow(t, c1)
	for _, id := range ids {
		if st, _ := c1.Job(id); st.State != jobs.StateCheckpointed {
			t.Errorf("drained job %s is %s, want checkpointed", id, st.State)
		}
	}
	gate.open()
	for _, tw := range workers {
		tw.stop()
	}

	var reruns atomic.Int32
	c2, _ := startDaemon(t, dir, WorkerOptions{Parallelism: 2, InjectCellError: func(jobs.CellSpec, int) error {
		reruns.Add(1)
		return nil
	}})
	for i, id := range ids {
		if st := waitJob(t, c2, id); st.State != jobs.StateDone {
			t.Fatalf("resumed job %s = %s (%s), want done", id, st.State, st.Error)
		}
		if got, err := c2.Result(id); err != nil || !bytes.Equal(got, inProcessResult(t, specs[i])) {
			t.Errorf("resumed job %s result differs from the in-process one (err %v)", id, err)
		}
	}
	if n := reruns.Load(); n != 2 {
		t.Errorf("resume re-ran %d cells, want the 2 unjournaled", n)
	}
	if rec, _ := c2.MetricsSnapshot().CounterAt("jobs/cells_recovered"); rec != 2 {
		t.Errorf("cells_recovered = %d, want 2", rec)
	}
}

// errJournalFault is the write failure journalFault injects.
var errJournalFault = errors.New("injected journal fault")

// faultJob returns a journalFault hook failing every append of job id.
func faultJob(id string) func(string) error {
	return func(jobID string) error {
		if jobID == id {
			return errJournalFault
		}
		return nil
	}
}

// newDaemon is startDaemon with hooks: set installs them before the
// coordinator starts.
func newDaemon(t *testing.T, dir string, wopt WorkerOptions, set func(*Coordinator)) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	set(c)
	c.AddLocalWorker(wopt)
	c.Start()
	t.Cleanup(func() { drainNow(t, c) })
	return c
}

// assertNoEndRecord fails unless job id's journal lacks an end record,
// so that a restart resumes it.
func assertNoEndRecord(t *testing.T, dir, id string) {
	t.Helper()
	data, err := os.ReadFile(jobs.JournalPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"type":"end"`)) {
		t.Errorf("failed job %s's journal has an end record", id)
	}
}

// TestJournalFailureFailsOnlyItsJob: two jobs are active on the
// in-process worker and every journal write of the second fails. The
// second job fails on it; the first completes byte-identically.
func TestJournalFailureFailsOnlyItsJob(t *testing.T) {
	specA, specB := twoCellSpec("atax"), twoCellSpec("mvt")
	dir := t.TempDir()
	gate := newCellGate(t)
	hook, _ := gate.hook(0)
	c := newDaemon(t, dir, WorkerOptions{Parallelism: 2, InjectCellError: hook}, func(c *Coordinator) {
		c.journalFault = faultJob("job-0002")
	})
	idA, idB := submit(t, c, specA), submit(t, c, specB)
	waitFor(t, "two active jobs", func() bool { return jobsActive(c) == 2 })
	gate.open()

	if st := waitJob(t, c, idB); st.State != jobs.StateFailed || !strings.Contains(st.Error, errJournalFault.Error()) {
		t.Fatalf("job %s = %s (%q), want failed on the journal fault", idB, st.State, st.Error)
	}
	if st := waitJob(t, c, idA); st.State != jobs.StateDone {
		t.Fatalf("job %s = %s (%s), want done", idA, st.State, st.Error)
	}
	if got, err := c.Result(idA); err != nil || !bytes.Equal(got, inProcessResult(t, specA)) {
		t.Errorf("job %s result differs from the in-process one (err %v)", idA, err)
	}
	if got, _ := c.MetricsSnapshot().CounterAt("jobs/jobs_failed"); got != 1 {
		t.Errorf("jobs_failed = %d, want 1", got)
	}
	assertNoEndRecord(t, dir, idB)
}

// TestCacheHitJournalFailureFailsJob: a job answered wholly from the
// result cache whose journal write fails is failed, not re-simulated, and
// its journal gets no end record, so a restarted coordinator resumes it.
func TestCacheHitJournalFailureFailsJob(t *testing.T) {
	spec := twoCellSpec("atax")
	want := inProcessResult(t, spec)
	dir := t.TempDir()
	var runs atomic.Int32
	c := newDaemon(t, dir, WorkerOptions{Parallelism: 2, InjectCellError: func(jobs.CellSpec, int) error {
		runs.Add(1)
		return nil
	}}, func(c *Coordinator) {
		c.journalFault = faultJob("job-0002")
	})
	if st := waitJob(t, c, submit(t, c, spec)); st.State != jobs.StateDone {
		t.Fatalf("first job = %s (%s), want done", st.State, st.Error)
	}
	id := submit(t, c, spec)
	if st := waitJob(t, c, id); st.State != jobs.StateFailed || !strings.Contains(st.Error, errJournalFault.Error()) {
		t.Fatalf("cache-served job = %s (%q), want failed on the journal fault", st.State, st.Error)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("cells ran %d times, want 2 (the cache-served job re-ran none)", n)
	}
	assertNoEndRecord(t, dir, id)
	drainNow(t, c)

	c2 := newDaemon(t, dir, WorkerOptions{Parallelism: 2}, func(*Coordinator) {})
	if st := waitJob(t, c2, id); st.State != jobs.StateDone {
		t.Fatalf("resumed job = %s (%s), want done", st.State, st.Error)
	}
	if got, err := c2.Result(id); err != nil || !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from the in-process one (err %v)", err)
	}
}

// TestActiveJobsBoundedByLeaseRoom: identical one-cell jobs take no lease
// room while they wait on the first one's cell, but no more jobs are
// active than the workers have room for (two cells per runner); the rest
// stay queued, so the queue bound still holds back a burst.
func TestActiveJobsBoundedByLeaseRoom(t *testing.T) {
	spec := jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1}
	c, srv := startCoordinator(t, fastOpts(t.TempDir()))
	gate := newCellGate(t)
	_, started := gate.worker(t, srv.URL, 1, 0)
	var ids []string
	for range 4 {
		ids = append(ids, submit(t, c, spec))
	}
	waitFor(t, "the first cell started", func() bool { return started.Load() >= 1 })
	waitFor(t, "two active jobs", func() bool { return jobsActive(c) == 2 })
	if depth, _ := c.MetricsSnapshot().CounterAt("jobs/queue_depth"); depth != 2 {
		t.Errorf("jobs/queue_depth = %d with two jobs active, want 2", depth)
	}
	gate.open()
	for _, id := range ids {
		if st := waitJob(t, c, id); st.State != jobs.StateDone {
			t.Fatalf("job %s = %s (%s), want done", id, st.State, st.Error)
		}
	}
	if n := started.Load(); n != 1 {
		t.Errorf("the worker ran %d cells, want 1", n)
	}
}
