package jobs_test

// The daemon's contract — retry, failure, shedding, draining,
// resume and the HTTP surface — checked against gputlbd's default mode:
// a fabric coordinator with one in-process worker, built here exactly as
// the command builds it.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gputlb/internal/fabric"
	"gputlb/internal/jobs"
)

// newDaemon builds the single daemon over dir (a fresh directory when
// empty) behind a loopback server. An unstarted daemon journals
// submissions but never runs them.
func newDaemon(t *testing.T, dir string, wopt fabric.WorkerOptions, start bool) (*fabric.Coordinator, *jobs.Client) {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	c, err := fabric.NewCoordinator(fabric.CoordinatorOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.AddLocalWorker(wopt)
	if start {
		c.Start()
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		srv.Close()
		drain(t, c)
	})
	return c, &jobs.Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
}

func drain(t *testing.T, c *fabric.Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func waitState(t *testing.T, c *fabric.Coordinator, id string, want ...jobs.State) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, ok := c.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := c.Job(id)
	t.Fatalf("job %s stuck in %s waiting for %v", id, st.State, want)
	return jobs.Status{}
}

func counterAt(t *testing.T, c *fabric.Coordinator, path string) int64 {
	t.Helper()
	v, ok := c.MetricsSnapshot().CounterAt(path)
	if !ok {
		t.Fatalf("metric %s not found", path)
	}
	return v
}

// TestRetryWithBackoff injects two failures into one cell and checks the
// cell ultimately succeeds, each retry waits at least its backoff, and the
// retries surface in the job status and the metrics tree. The exact
// doubling sequence is pinned by internal/fabric's
// TestLocalWorkerBackoffDoubles through the worker's sleep seam, which
// this package cannot reach.
func TestRetryWithBackoff(t *testing.T) {
	var mu sync.Mutex
	var attemptsAt []time.Time
	c, _ := newDaemon(t, "", fabric.WorkerOptions{
		Parallelism:  1,
		MaxAttempts:  3,
		RetryBackoff: 50 * time.Millisecond,
		InjectCellError: func(cell jobs.CellSpec, attempt int) error {
			if cell.Config != "sched" {
				return nil
			}
			mu.Lock()
			attemptsAt = append(attemptsAt, time.Now())
			mu.Unlock()
			if attempt <= 2 {
				return fmt.Errorf("injected failure %d", attempt)
			}
			return nil
		},
	}, true)
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline", "sched"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, c, id, jobs.StateDone, jobs.StateFailed)
	if st.State != jobs.StateDone {
		t.Fatalf("job = %s (%s), want done", st.State, st.Error)
	}
	if st.Retries != 2 {
		t.Errorf("status retries = %d, want 2", st.Retries)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(attemptsAt) != 3 {
		t.Fatalf("sched cell ran %d attempts, want 3", len(attemptsAt))
	}
	for i, min := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond} {
		if gap := attemptsAt[i+1].Sub(attemptsAt[i]); gap < min {
			t.Errorf("backoff %d = %v, want >= %v", i, gap, min)
		}
	}
	if got := counterAt(t, c, "jobs/cells_retried"); got != 2 {
		t.Errorf("jobs/cells_retried = %d, want 2", got)
	}
	if got := counterAt(t, c, "worker/cells_retried"); got != 2 {
		t.Errorf("worker/cells_retried = %d, want 2", got)
	}
	if got := counterAt(t, c, "jobs/cells_failed"); got != 0 {
		t.Errorf("cells_failed = %d, want 0", got)
	}
}

// TestPermanentFailure exhausts a cell's attempts: the job fails, the
// cell's error is recorded, and the failure shows in metrics — but the
// other cells still complete and are journaled.
func TestPermanentFailure(t *testing.T) {
	c, _ := newDaemon(t, "", fabric.WorkerOptions{
		Parallelism:  1,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		InjectCellError: func(cell jobs.CellSpec, _ int) error {
			if cell.Bench == "mvt" {
				return errors.New("injected permanent failure")
			}
			return nil
		},
	}, true)
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax", "mvt"}, Configs: []string{"baseline"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, c, id, jobs.StateDone, jobs.StateFailed)
	if st.State != jobs.StateFailed {
		t.Fatalf("job = %s, want failed", st.State)
	}
	if st.CellsFailed != 1 || st.CellsDone != 1 {
		t.Errorf("cells done/failed = %d/%d, want 1/1", st.CellsDone, st.CellsFailed)
	}
	if got := counterAt(t, c, "jobs/cells_failed"); got != 1 {
		t.Errorf("cells_failed = %d, want 1", got)
	}
	if got := counterAt(t, c, "jobs/jobs_failed"); got != 1 {
		t.Errorf("jobs_failed = %d, want 1", got)
	}
	if _, err := c.Result(id); !errors.Is(err, jobs.ErrNotDone) {
		t.Errorf("failed job's result should be ErrNotDone, got %v", err)
	}
}

// TestQueueSheds verifies the bounded queue: submissions beyond capacity
// fail fast with ErrQueueFull instead of accumulating.
func TestQueueSheds(t *testing.T) {
	c, err := fabric.NewCoordinator(fabric.CoordinatorOptions{Dir: t.TempDir(), QueueCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.AddLocalWorker(fabric.WorkerOptions{})
	defer drain(t, c)
	// Not started: nothing drains the queue.
	spec := jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1}
	if _, err := c.Submit(spec); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if _, err := c.Submit(spec); !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("second submit = %v, want ErrQueueFull", err)
	}
	if got := counterAt(t, c, "jobs/jobs_shed"); got != 1 {
		t.Errorf("jobs_shed = %d, want 1", got)
	}
	if got := counterAt(t, c, "jobs/queue_depth"); got != 1 {
		t.Errorf("queue_depth = %d, want 1", got)
	}
}

// TestDrainingRejectsSubmissions checks the graceful-shutdown contract.
func TestDrainingRejectsSubmissions(t *testing.T) {
	c, _ := newDaemon(t, "", fabric.WorkerOptions{}, true)
	drain(t, c)
	if _, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1}); !errors.Is(err, jobs.ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
}

// get fetches path from the daemon behind cl, failing on a non-200.
func get(t *testing.T, cl *jobs.Client, path string) string {
	t.Helper()
	resp, err := cl.HTTPClient.Get(cl.BaseURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = HTTP %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHTTPEndToEnd drives the whole API through the client: submit, poll,
// fetch the result, and check it matches the daemon's canonical bytes.
func TestHTTPEndToEnd(t *testing.T) {
	c, cl := newDaemon(t, "", fabric.WorkerOptions{Parallelism: 2}, true)

	id, err := cl.Submit(jobs.JobSpec{Name: "http-e2e", Benchmarks: []string{"atax"}, Configs: []string{"baseline", "sched"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := cl.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("job = %s (%s), want done", st.State, st.Error)
	}

	viaHTTP, err := cl.RawResult(id)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(viaHTTP) != string(canonical) {
		t.Error("HTTP result differs from the journaled artifact")
	}

	res, err := cl.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "http-e2e" || len(res.Cells) != 2 {
		t.Errorf("decoded result = name %q, %d cells", res.Name, len(res.Cells))
	}
	for i, cell := range res.Cells {
		if cell.Cycles <= 0 || cell.L1TLBHitRate <= 0 {
			t.Errorf("cell %d has empty results: %+v", i, cell)
		}
	}

	// The listing includes the job.
	var all []jobs.Status
	if err := json.Unmarshal([]byte(get(t, cl, "/jobs")), &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != id {
		t.Errorf("job listing = %+v", all)
	}
}

// TestHTTPQueueSheds429 checks the load-shedding contract over the wire.
func TestHTTPQueueSheds429(t *testing.T) {
	c, err := fabric.NewCoordinator(fabric.CoordinatorOptions{Dir: t.TempDir(), QueueCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.AddLocalWorker(fabric.WorkerOptions{})
	defer drain(t, c)
	srv := httptest.NewServer(c.Handler()) // not started: the queue cannot drain
	defer srv.Close()
	cl := &jobs.Client{BaseURL: srv.URL}
	spec := jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1}
	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if _, err := cl.Submit(spec); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("second submit = %v, want HTTP 429", err)
	}
}

// TestHTTPResultConflictAndNotFound covers the result endpoint's error
// paths: 409 while a job is unfinished, 404 for unknown jobs.
func TestHTTPResultConflictAndNotFound(t *testing.T) {
	_, cl := newDaemon(t, "", fabric.WorkerOptions{}, false) // never runs: stays queued
	id, err := cl.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RawResult(id); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("unfinished result = %v, want HTTP 409", err)
	}
	if _, err := cl.Status("job-9999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown status = %v, want HTTP 404", err)
	}
	if _, err := cl.RawResult("job-9999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown result = %v, want HTTP 404", err)
	}
}

func TestHTTPSubmitRejectsBadSpecs(t *testing.T) {
	_, cl := newDaemon(t, "", fabric.WorkerOptions{}, false)
	for _, body := range []string{
		`{`,         // malformed JSON
		`{"wat":1}`, // unknown field
		`{"benchmarks":["nope"],"configs":["baseline"]}`,      // unknown benchmark
		`{"benchmarks":["atax"],"configs":["not-a-config"]}`,  // unknown config
		`{"benchmarks":["atax"]}`,                             // no configs or cells
		`{"cells":[{"bench":"atax","config":"compression"}]}`, // deleted alias: baseline with mech compressed
		// Removed fields: the page size is a config's, and the engine is
		// an in-process option, not a property of the cell.
		`{"cells":[{"bench":"atax","config":"baseline","page_shift":21}]}`,
		`{"cells":[{"bench":"atax","config":"baseline","cell_parallel":2}]}`,
		`{"cells":[{"bench":"atax","config":"baseline","l2_slices":4}]}`,
		`{"benchmarks":["atax"],"configs":["baseline"],"cell_parallel":2,"l2_slices":4}`,
	} {
		resp, err := cl.HTTPClient.Post(cl.BaseURL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q = HTTP %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestHTTPMetricsSurfaceRetries injects a failure and checks it appears
// through /metrics in both text and JSON forms, alongside /healthz.
func TestHTTPMetricsSurfaceRetries(t *testing.T) {
	var injected atomic.Bool
	_, cl := newDaemon(t, "", fabric.WorkerOptions{
		Parallelism:  1,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		InjectCellError: func(_ jobs.CellSpec, attempt int) error {
			if attempt == 1 && injected.CompareAndSwap(false, true) {
				return errors.New("injected")
			}
			return nil
		},
	}, true)
	id, err := cl.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if st, err := cl.Wait(ctx, id, 20*time.Millisecond); err != nil || st.State != jobs.StateDone {
		t.Fatalf("wait: %v (state %s)", err, st.State)
	}

	if got := get(t, cl, "/healthz"); !strings.Contains(got, "ok") {
		t.Errorf("/healthz = %q", got)
	}
	text := get(t, cl, "/metrics")
	for _, want := range []string{
		"gputlbd/jobs/cells_retried 1\n",
		"gputlbd/jobs/cells_completed 1\n",
		"gputlbd/jobs/jobs_completed 1\n",
		"gputlbd/trace_cache/entries ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q; got:\n%s", want, text)
		}
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(get(t, cl, "/metrics?format=json")), &snap); err != nil {
		t.Errorf("/metrics?format=json is not JSON: %v", err)
	}
}

// TestHTTPDaemonRestartServesResumedJob simulates a daemon restart over
// the full HTTP surface: submit against one server, drain it while the
// job's second cell waits out a retry backoff, bring up a second daemon
// on the same journal directory, and fetch the finished result there.
// The cancelled retry leaves no journal record, so it re-runs.
func TestHTTPDaemonRestartServesResumedJob(t *testing.T) {
	dir := t.TempDir()
	held := make(chan struct{})
	var attempts atomic.Int32
	c1, cl1 := newDaemon(t, dir, fabric.WorkerOptions{
		Parallelism:  1,
		RetryBackoff: time.Hour,
		InjectCellError: func(jobs.CellSpec, int) error {
			if attempts.Add(1) == 2 {
				close(held)
				return errors.New("held until the drain")
			}
			return nil
		},
	}, true)
	id, err := cl1.Submit(jobs.JobSpec{Name: "restart", Benchmarks: []string{"atax"}, Configs: []string{"baseline", "sched"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	<-held
	drain(t, c1)
	if st, _ := c1.Job(id); st.State != jobs.StateCheckpointed || st.CellsDone != 1 || st.CellsFailed != 0 {
		t.Fatalf("drained job = %+v, want checkpointed with 1 cell done and none failed", st)
	}

	// "Restart" on the same journal directory.
	_, cl2 := newDaemon(t, dir, fabric.WorkerOptions{Parallelism: 1}, true)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := cl2.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("resumed job = %s (%s), want done", st.State, st.Error)
	}
	res, err := cl2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "restart" || len(res.Cells) != 2 {
		t.Errorf("resumed result = %+v", res)
	}
}

// TestJournalWithUnknownSpecFieldFailsUnresumed hand-writes two journals
// as a build with the cell_parallel field wrote them: an unfinished job
// with one cell done, and a finished job with its artifact. The daemon
// starts, fails the unfinished job naming the field instead of resuming
// it on another engine, keeps the finished job's artifact, and runs new
// jobs.
func TestJournalWithUnknownSpecFieldFailsUnresumed(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(dir+"/"+name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const cells = `{"cells":[{"bench":"atax","config":"baseline","scale":0.1,"seed":1,"cell_parallel":2},` +
		`{"bench":"atax","config":"sched","scale":0.1,"seed":1,"cell_parallel":2}]}`
	const cell = `{"type":"cell","index":0,"attempts":1,"result":{"bench":"atax","config":"baseline","cycles":9}}` + "\n"
	write("job-0001.journal", `{"type":"spec","id":"job-0001","spec":`+cells+"}\n"+cell)
	write("job-0002.journal", `{"type":"spec","id":"job-0002","spec":`+cells+"}\n"+cell+
		`{"type":"cell","index":1,"attempts":1,"result":{"bench":"atax","config":"sched","cycles":8}}`+"\n"+`{"type":"end"}`+"\n")
	const artifact = "{\"id\": \"job-0002\"}\n"
	write("job-0002.result.json", artifact)

	var ran atomic.Int32
	c, cl := newDaemon(t, dir, fabric.WorkerOptions{
		Parallelism: 1,
		InjectCellError: func(jobs.CellSpec, int) error {
			ran.Add(1)
			return nil
		},
	}, true)
	st, ok := c.Job("job-0001")
	if !ok || st.State != jobs.StateFailed || !strings.Contains(st.Error, `"cell_parallel"`) {
		t.Fatalf("unfinished journal with an unknown field = %+v, want failed naming cell_parallel", st)
	}
	if st, _ := c.Job("job-0002"); st.State != jobs.StateDone {
		t.Errorf("finished journal = %+v, want done", st)
	}
	if got, err := cl.RawResult("job-0002"); err != nil || string(got) != artifact {
		t.Errorf("finished job's artifact = %q, %v; want %q", got, err, artifact)
	}
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, c, id, jobs.StateDone, jobs.StateFailed); st.State != jobs.StateDone {
		t.Fatalf("new job = %s (%s), want done", st.State, st.Error)
	}
	if n := ran.Load(); n != 1 {
		t.Errorf("daemon ran %d cells, want only the new job's 1", n)
	}
	if st, _ := c.Job("job-0001"); st.State != jobs.StateFailed {
		t.Errorf("unfinished journal became %s after the next job", st.State)
	}
}

// TestKillInCreateJournalKeepsDaemonStartable interrupts a submission
// after its journal file exists but before the spec header is durable —
// a torn, never-fsync'd header, as a kill leaves it — and checks that a
// daemon restarted on the same directory starts and runs the next job.
func TestKillInCreateJournalKeepsDaemonStartable(t *testing.T) {
	dir := t.TempDir()
	spec := jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1}
	restore := jobs.SetCreateJournalHook(func(f *os.File) error {
		f.WriteString(`{"type":"spec","id":"job-00`)
		return errors.New("killed before the header was durable")
	})
	t.Cleanup(restore)
	c1, _ := newDaemon(t, dir, fabric.WorkerOptions{}, false)
	if _, err := c1.Submit(spec); err == nil {
		t.Fatal("Submit succeeded through an interrupted journal create")
	}
	restore()
	drain(t, c1)

	c2, _ := newDaemon(t, dir, fabric.WorkerOptions{Parallelism: 1}, true)
	id, err := c2.Submit(spec)
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if st := waitState(t, c2, id, jobs.StateDone, jobs.StateFailed); st.State != jobs.StateDone {
		t.Fatalf("job = %s (%s), want done", st.State, st.Error)
	}
}
