package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gputlb/internal/jobs"
)

// The end-to-end suite: an in-process coordinator with N remote workers
// wired through real HTTP servers, or with its one in-process worker
// (gputlbd's default mode), checked for byte-identity against an
// in-process run of the same specs — under worker kill, flaky result
// delivery, stalled-worker stealing, and coordinator restart.

// fastOpts are coordinator timings scaled for tests: leases expire in
// hundreds of milliseconds instead of seconds.
func fastOpts(dir string) CoordinatorOptions {
	return CoordinatorOptions{
		Dir:          dir,
		BatchSize:    2,
		TickEvery:    10 * time.Millisecond,
		LeaseTimeout: 400 * time.Millisecond,
		StealAfter:   200 * time.Millisecond,
	}
}

// killableTransport simulates a network partition: once dead, every
// request from the worker (heartbeats, result flushes, registration)
// fails.
type killableTransport struct {
	dead atomic.Bool
}

func (k *killableTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if k.dead.Load() {
		return nil, errors.New("network partition (test)")
	}
	return http.DefaultTransport.RoundTrip(r)
}

type testWorker struct {
	w         *Worker
	srv       *httptest.Server
	transport *killableTransport
}

// kill severs the worker from the fabric: its server stops accepting
// dispatches and its outbound traffic (heartbeats, results) fails.
func (tw *testWorker) kill() {
	tw.transport.dead.Store(true)
	tw.srv.Close()
}

func (tw *testWorker) stop() {
	tw.transport.dead.Store(true) // unblock any flush retry loops fast
	tw.w.Close()
	tw.srv.Close()
}

// startWorker brings up one worker behind its own HTTP server, joined to
// coordinatorURL.
func startWorker(t *testing.T, coordinatorURL string) *testWorker {
	t.Helper()
	return startWorkerWith(t, coordinatorURL, nil)
}

// startWorkerWith is startWorker with a fault-injection hook.
func startWorkerWith(t *testing.T, coordinatorURL string, inject func(jobs.CellSpec, int) error) *testWorker {
	t.Helper()
	var handler atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	tr := &killableTransport{}
	w := NewWorker(WorkerOptions{
		CoordinatorURL:  coordinatorURL,
		AdvertiseURL:    srv.URL,
		Parallelism:     2,
		FlushSize:       2,
		HeartbeatEvery:  50 * time.Millisecond,
		RetryBackoff:    10 * time.Millisecond,
		HTTPClient:      &http.Client{Transport: tr},
		InjectCellError: inject,
	})
	handler.Store(w.Handler())
	if err := w.Start(); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return &testWorker{w: w, srv: srv, transport: tr}
}

// startCoordinator brings up a coordinator behind an HTTP server.
func startCoordinator(t *testing.T, opt CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(opt)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Drain(ctx)
		srv.Close()
	})
	return c, srv
}

// startDaemon brings up gputlbd's default mode — a coordinator with one
// in-process worker — behind an HTTP server.
func startDaemon(t *testing.T, dir string, wopt WorkerOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, srv := startCoordinator(t, fastOpts(dir))
	c.AddLocalWorker(wopt)
	return c, srv
}

// inProcessResult runs spec's cells with jobs.RunCell in this process and
// encodes them with jobs.EncodeResult: the byte-identity reference every
// daemon and fabric result must match.
func inProcessResult(t *testing.T, spec jobs.JobSpec) []byte {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	res := jobs.Result{Name: spec.Name, Spec: spec, Cells: make([]jobs.CellResult, len(spec.Cells))}
	for i, cell := range spec.Cells {
		r, err := jobs.RunCell(cell)
		if err != nil {
			t.Fatal(err)
		}
		res.Cells[i] = r
	}
	out, err := jobs.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// waitJob polls c until job id reaches a terminal state.
func waitJob(t *testing.T, c *Coordinator, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, ok := c.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == jobs.StateDone || st.State == jobs.StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func drainNow(t *testing.T, c *Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// submitAndWait submits spec through the coordinator's HTTP API (the
// same jobs.Client the evaluate -daemon path uses) and returns the
// result bytes.
func submitAndWait(t *testing.T, baseURL string, spec jobs.JobSpec) []byte {
	t.Helper()
	cl := &jobs.Client{BaseURL: baseURL}
	id, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := cl.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
	}
	out, err := cl.RawResult(id)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func testJobSpec() jobs.JobSpec {
	return jobs.JobSpec{
		Name:       "fabric-e2e",
		Benchmarks: []string{"atax", "bicg", "mvt"},
		Configs:    []string{"baseline", "sched"},
		Scale:      0.1,
	}
}

// TestFabricByteIdenticalToSingleDaemon is the core acceptance property,
// three ways: the single daemon (a coordinator with its in-process
// worker), a coordinator with three remote workers, and jobs.EncodeResult
// of in-process jobs.RunCell per cell produce the same bytes.
func TestFabricByteIdenticalToSingleDaemon(t *testing.T) {
	spec := testJobSpec()
	want := inProcessResult(t, spec)

	_, daemon := startDaemon(t, t.TempDir(), WorkerOptions{Parallelism: 2})
	if got := submitAndWait(t, daemon.URL, spec); !bytes.Equal(got, want) {
		t.Errorf("single-daemon result differs from the in-process one:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	_, srv := startCoordinator(t, fastOpts(t.TempDir()))
	for i := 0; i < 3; i++ {
		tw := startWorker(t, srv.URL)
		defer tw.stop()
	}
	if got := submitAndWait(t, srv.URL, spec); !bytes.Equal(got, want) {
		t.Errorf("distributed result differs from the in-process one:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// TestFabricSmoke is the CI smoke (make fabric-smoke): coordinator + 2
// workers, one killed mid-job — dispatch failures, heartbeat expiry, and
// re-dispatch of unacked cells — and the survivor still delivers a
// byte-identical result file.
func TestFabricSmoke(t *testing.T) {
	spec := testJobSpec()
	want := inProcessResult(t, spec)

	c, srv := startCoordinator(t, fastOpts(t.TempDir()))
	// The workers start at most two cells before the kill, so the job is
	// always mid-flight when it happens.
	release := make(chan struct{})
	var started atomic.Int32
	gate := func(jobs.CellSpec, int) error {
		if started.Add(1) > 2 {
			<-release
		}
		return nil
	}
	w1 := startWorkerWith(t, srv.URL, gate)
	defer w1.stop()
	w2 := startWorkerWith(t, srv.URL, gate)
	defer w2.srv.Close() // w2.kill below severs it; just free the port listener state

	cl := &jobs.Client{BaseURL: srv.URL}
	id, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the second worker once the job is demonstrably mid-flight:
	// at least one cell done, not all.
	killDeadline := time.Now().Add(120 * time.Second)
	for {
		st, err := cl.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.CellsDone >= 1 {
			break
		}
		if time.Now().After(killDeadline) {
			t.Fatalf("no progress: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	w2.kill()
	close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := cl.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("job ended %s after worker kill: %s", st.State, st.Error)
	}
	got, err := cl.RawResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("result after mid-job worker kill differs from the in-process result")
	}
	// The survivor may finish (via stealing) before the killed worker's
	// lease timeout elapses; the expiry scan keeps running, so poll.
	expireDeadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := c.MetricsSnapshot().CounterAt("fabric/workers_expired"); v >= 1 {
			break
		}
		if time.Now().After(expireDeadline) {
			t.Fatal("killed worker never expired off the registry")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFabricCacheWarmRerun: resubmitting an identical job must complete
// entirely from the content-addressed cache — zero cells dispatched to
// workers — and still produce the byte-identical artifact.
func TestFabricCacheWarmRerun(t *testing.T) {
	spec := jobs.JobSpec{
		Name:       "cache-warm",
		Benchmarks: []string{"atax", "bicg"},
		Configs:    []string{"baseline", "sched"},
		Scale:      0.1,
	}
	c, srv := startCoordinator(t, fastOpts(t.TempDir()))
	tw := startWorker(t, srv.URL)
	defer tw.stop()

	first := submitAndWait(t, srv.URL, spec)
	snap := c.MetricsSnapshot()
	dispatchedCold, _ := snap.CounterAt("fabric/cells_dispatched")
	if hits, _ := snap.CounterAt("result_cache/hits"); hits != 0 {
		t.Errorf("cold run hit the cache %d times", hits)
	}

	second := submitAndWait(t, srv.URL, spec)
	if !bytes.Equal(first, second) {
		t.Error("cache-served result differs from the simulated one")
	}
	snap = c.MetricsSnapshot()
	if hits, _ := snap.CounterAt("result_cache/hits"); hits != 4 {
		t.Errorf("warm run cache hits = %d, want 4 (100%%)", hits)
	}
	if fromCache, _ := snap.CounterAt("fabric/cells_from_cache"); fromCache != 4 {
		t.Errorf("cells_from_cache = %d, want 4", fromCache)
	}
	if dispatchedWarm, _ := snap.CounterAt("fabric/cells_dispatched"); dispatchedWarm != dispatchedCold {
		t.Errorf("warm run dispatched %d new cells, want 0 (re-simulated)", dispatchedWarm-dispatchedCold)
	}
	// The two artifacts are separate jobs with separate journals; both
	// result files must also match an in-process run.
	if want := inProcessResult(t, spec); !bytes.Equal(first, want) {
		t.Error("fabric result differs from the in-process result")
	}
}

// TestFabricFlakyResultDelivery drops the coordinator's response to
// every 2nd result flush after processing it — the lost-ack case. The
// worker's batcher must retry (at-least-once), the coordinator must
// deduplicate the replays, the journal must record each cell exactly
// once, and the job must complete byte-identically.
func TestFabricFlakyResultDelivery(t *testing.T) {
	spec := jobs.JobSpec{
		Name:       "flaky",
		Benchmarks: []string{"atax", "bicg"},
		Configs:    []string{"baseline", "sched"},
		Scale:      0.1,
	}
	want := inProcessResult(t, spec)

	dir := t.TempDir()
	c, srv := startCoordinator(t, fastOpts(dir))

	// A dropping proxy between worker and coordinator: forwards every
	// request, but swallows the response of every 2nd /results POST.
	var resultPosts atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		req, err := http.NewRequest(r.Method, srv.URL+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if r.Method == http.MethodPost && r.URL.Path == "/results" && resultPosts.Add(1)%2 == 1 {
			// The coordinator processed the batch; its ack is "lost".
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(out)
	}))
	defer proxy.Close()

	tw := startWorker(t, proxy.URL)
	defer tw.stop()

	got := submitAndWait(t, srv.URL, spec)
	if !bytes.Equal(got, want) {
		t.Error("result under flaky delivery differs from the in-process result")
	}
	// The replay of the lost-ack batch arrives on the worker's retry
	// backoff, possibly after the job already finished — poll for it.
	dupDeadline := time.Now().Add(10 * time.Second)
	for {
		if dups, _ := c.MetricsSnapshot().CounterAt("fabric/results_duplicate"); dups >= 1 {
			break
		}
		if time.Now().After(dupDeadline) {
			t.Fatal("no lost-ack replay was ever deduplicated")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if retries, ok := tw.w.Registry().Snapshot().CounterAt("worker/flush_retries"); !ok || retries < 1 {
		t.Errorf("worker flush_retries = %d, want >= 1", retries)
	}
	assertJournalNoDuplicateCells(t, jobs.JournalPath(dir, "job-0001"))
}

// assertJournalNoDuplicateCells parses a journal's raw lines and fails
// if any cell index carries more than one durable outcome record.
func assertJournalNoDuplicateCells(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[int]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		var rec struct {
			Type  string `json:"type"`
			Index int    `json:"index"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		if rec.Type == "cell" || rec.Type == "fail" {
			seen[rec.Index]++
		}
	}
	for idx, n := range seen {
		if n > 1 {
			t.Errorf("cell %d journaled %d times, want exactly once", idx, n)
		}
	}
}

// TestFabricStealsFromStalledWorker registers a black-hole worker that
// accepts cell batches and heartbeats diligently but never returns a
// result. The real worker must steal its leases and finish the job.
func TestFabricStealsFromStalledWorker(t *testing.T) {
	spec := jobs.JobSpec{
		Name:       "steal",
		Benchmarks: []string{"atax", "bicg"},
		Configs:    []string{"baseline", "sched"},
		Scale:      0.1,
	}
	want := inProcessResult(t, spec)

	c, srv := startCoordinator(t, fastOpts(t.TempDir()))

	// Black hole: 202s every batch, runs nothing, heartbeats forever.
	hole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte("{}"))
	}))
	defer hole.Close()
	body, _ := json.Marshal(RegisterRequest{URL: hole.URL, Parallelism: 2})
	resp, err := http.Post(srv.URL+"/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rr RegisterResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	stopBeats := make(chan struct{})
	defer close(stopBeats)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopBeats:
				return
			case <-tick.C:
				resp, err := http.Post(srv.URL+"/workers/"+rr.ID+"/heartbeat", "application/json", nil)
				if err == nil {
					resp.Body.Close()
				}
			}
		}
	}()

	tw := startWorker(t, srv.URL)
	defer tw.stop()

	got := submitAndWait(t, srv.URL, spec)
	if !bytes.Equal(got, want) {
		t.Error("result with a stalled worker differs from the in-process result")
	}
	snap := c.MetricsSnapshot()
	if stolen, _ := snap.CounterAt("fabric/cells_stolen"); stolen < 1 {
		t.Errorf("cells_stolen = %d, want >= 1 (the black hole held leases)", stolen)
	}
}

// TestCoordinatorResume drains a coordinator mid-job and restarts a new
// one on the same journal directory: journaled cells must not re-run,
// and the completed result must be byte-identical. The worker starts at
// most two cells before the drain, so the job cannot finish first, and
// the drain waits for the first journaled cell, so the restart always
// has cells to recover.
func TestCoordinatorResume(t *testing.T) {
	spec := testJobSpec()
	want := inProcessResult(t, spec)

	dir := t.TempDir()
	c1, err := NewCoordinator(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	journaled := make(chan struct{})
	var once sync.Once
	c1.afterJournal = func(string) { once.Do(func() { close(journaled) }) }
	c1.Start()
	srv1 := httptest.NewServer(c1.Handler())
	release := make(chan struct{})
	var started atomic.Int32
	w1 := startWorkerWith(t, srv1.URL, func(jobs.CellSpec, int) error {
		if started.Add(1) > 2 {
			<-release
		}
		return nil
	})

	cl := &jobs.Client{BaseURL: srv1.URL}
	id, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-journaled:
	case <-time.After(2 * time.Minute):
		t.Fatal("no cell was ever journaled")
	}
	drainNow(t, c1)
	close(release)
	w1.stop()
	srv1.Close()

	c2, srv2 := startCoordinator(t, fastOpts(dir))
	st, ok := c2.Job(id)
	if !ok || st.State != jobs.StateCheckpointed {
		t.Fatalf("restarted coordinator sees %s as %v/%s, want checkpointed", id, ok, st.State)
	}
	recovered := st.CellsDone
	if recovered < 1 || recovered > 2 {
		t.Fatalf("restart found %d journaled cells, want 1 or 2", recovered)
	}
	w2 := startWorker(t, srv2.URL)
	defer w2.stop()

	cl2 := &jobs.Client{BaseURL: srv2.URL}
	wctx, wcancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer wcancel()
	fin, err := cl2.Wait(wctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != jobs.StateDone {
		t.Fatalf("resumed job ended %s: %s", fin.State, fin.Error)
	}
	got, err := cl2.RawResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed coordinator result differs from the in-process result")
	}
	if rec, _ := c2.MetricsSnapshot().CounterAt("jobs/cells_recovered"); rec != int64(recovered) {
		t.Errorf("cells_recovered = %d, want %d (journaled before restart)", rec, recovered)
	}
}

// evalSpec is a small Figure 10/11-shaped grid: 2 benchmarks × 4 configs
// at reduced scale.
func evalSpec() jobs.JobSpec {
	return jobs.JobSpec{
		Name:       "eval",
		Benchmarks: []string{"atax", "mvt"},
		Configs:    []string{"baseline", "sched", "sched+part", "sched+part+share"},
		Scale:      0.1,
	}
}

// TestKillAndResumeByteIdentical drains a single daemon mid-sweep, held
// at its third journaled cell, then opens a fresh one on the same
// journal directory: it recovers exactly the journaled cells, re-runs
// only the others, and produces a result byte-identical to an in-process
// run's.
func TestKillAndResumeByteIdentical(t *testing.T) {
	const interruptAfter = 3
	spec := evalSpec()
	want := inProcessResult(t, spec)

	// One runner makes the interruption point exact: the hook runs on the
	// runner itself, and Drain stops the worker before it closes stop, so
	// no further cell starts once the hook returns.
	dir := t.TempDir()
	c1, err := NewCoordinator(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	c1.AddLocalWorker(WorkerOptions{Parallelism: 1})
	held := make(chan struct{})
	journaled := 0
	c1.afterJournal = func(string) {
		if journaled++; journaled == interruptAfter {
			close(held)
			<-c1.stop
		}
	}
	c1.Start()
	id, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-held
	drainNow(t, c1)
	st, _ := c1.Job(id)
	if st.State != jobs.StateCheckpointed || st.CellsDone != interruptAfter {
		t.Fatalf("drained job is %s with %d cells, want checkpointed with %d", st.State, st.CellsDone, interruptAfter)
	}
	if _, err := c1.Result(id); !errors.Is(err, jobs.ErrNotDone) {
		t.Fatalf("checkpointed job's result should be ErrNotDone, got %v", err)
	}

	c2, err := NewCoordinator(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	var rerun atomic.Int32
	c2.AddLocalWorker(WorkerOptions{Parallelism: 2, InjectCellError: func(jobs.CellSpec, int) error {
		rerun.Add(1)
		return nil
	}})
	if st, ok := c2.Job(id); !ok || st.State != jobs.StateCheckpointed || st.CellsDone != interruptAfter {
		t.Fatalf("job not loaded as checkpointed with %d cells: %+v (ok=%v)", interruptAfter, st, ok)
	}
	c2.Start()
	defer drainNow(t, c2)
	if st := waitJob(t, c2, id); st.State != jobs.StateDone {
		t.Fatalf("resumed job ended %s: %s", st.State, st.Error)
	}
	got, err := c2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	const total = 8
	if int(rerun.Load()) != total-interruptAfter {
		t.Errorf("resume re-ran %d cells, want only the %d unfinished", rerun.Load(), total-interruptAfter)
	}
	if rec, _ := c2.MetricsSnapshot().CounterAt("jobs/cells_recovered"); rec != interruptAfter {
		t.Errorf("cells_recovered = %d, want %d", rec, interruptAfter)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from the in-process run (lens %d vs %d)", len(got), len(want))
	}
}

// TestResultsRejectsOutOfRangeIndex: a result batch naming a cell its
// job does not have (or no attempt) is refused whole with 400 before
// anything is marked or journaled. The coordinator keeps serving and
// still finishes the job byte-identically.
func TestResultsRejectsOutOfRangeIndex(t *testing.T) {
	spec := testJobSpec()
	want := inProcessResult(t, spec)
	_, srv := startCoordinator(t, fastOpts(t.TempDir()))
	// A timeout turns a wedged coordinator into a failure, not a hang.
	hc := &http.Client{Timeout: 10 * time.Second}
	cl := &jobs.Client{BaseURL: srv.URL, HTTPClient: hc}
	id, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// With no worker joined, the scheduler activates the job and waits.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, err := cl.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never activated: %+v", st)
		}
	}

	junk := jobs.CellResult{Bench: "junk"}
	for _, bad := range []ResultBatch{
		{Outcomes: []CellOutcome{{Job: id, Index: 999, Attempts: 1, Result: &junk}}},
		{Outcomes: []CellOutcome{{Job: id, Index: 999, Attempts: 1, Error: "bogus"}}},
		{Outcomes: []CellOutcome{{Job: id, Index: 0, Attempts: 1, Result: &junk}, {Job: id, Index: -1, Attempts: 1, Error: "bogus"}}},
		{Outcomes: []CellOutcome{{Job: id, Index: 0, Attempts: 0, Result: &junk}}},
	} {
		body, _ := json.Marshal(bad)
		resp, err := hc.Post(srv.URL+"/results", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /results %s: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /results %s = HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := hc.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs after bad results: %v", err)
	}
	resp.Body.Close()
	if st, err := cl.Status(id); err != nil || st.CellsDone != 0 || st.CellsFailed != 0 {
		t.Fatalf("after rejected batches: %+v, %v; want nothing applied", st, err)
	}

	tw := startWorker(t, srv.URL)
	defer tw.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if st, err := cl.Wait(ctx, id, 20*time.Millisecond); err != nil || st.State != jobs.StateDone {
		t.Fatalf("job after rejected batches: %+v, %v", st, err)
	}
	got, err := cl.RawResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("result after rejected batches differs from the in-process result")
	}
}

// TestLocalWorkerBackoffDoubles pins the single daemon's retry schedule
// exactly: a cell failing twice waits RetryBackoff, then twice that,
// before its third attempt succeeds.
func TestLocalWorkerBackoffDoubles(t *testing.T) {
	c, _ := startDaemon(t, t.TempDir(), WorkerOptions{
		Parallelism:  1,
		MaxAttempts:  3,
		RetryBackoff: 50 * time.Millisecond,
		InjectCellError: func(_ jobs.CellSpec, attempt int) error {
			if attempt <= 2 {
				return fmt.Errorf("injected failure %d", attempt)
			}
			return nil
		},
	})
	var mu sync.Mutex
	var slept []time.Duration
	c.mu.Lock()
	c.local.sleep = func(d time.Duration) bool {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
		return true
	}
	c.mu.Unlock()
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, c, id); st.State != jobs.StateDone || st.Retries != 2 {
		t.Fatalf("job = %s with %d retries (%s), want done with 2", st.State, st.Retries, st.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}; fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Errorf("retry backoffs = %v, want %v (doubling from RetryBackoff)", slept, want)
	}
}

// TestLocalJournalFailureFailsJob: when the single daemon cannot journal
// a finished cell, the job fails at once instead of re-running the cell
// in a loop, and the cells already queued are not run again.
func TestLocalJournalFailureFailsJob(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int32
	c, _ := startDaemon(t, t.TempDir(), WorkerOptions{
		Parallelism: 1,
		InjectCellError: func(jobs.CellSpec, int) error {
			runs.Add(1)
			<-release
			return nil
		},
	})
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline", "sched"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); runs.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no cell ever started")
		}
	}
	c.mu.Lock()
	c.active.journal.Close() // every later append fails
	c.mu.Unlock()
	close(release)

	st := waitJob(t, c, id)
	if st.State != jobs.StateFailed || !strings.Contains(st.Error, "closed") {
		t.Fatalf("job = %s (%q), want failed on the journal write", st.State, st.Error)
	}
	time.Sleep(100 * time.Millisecond) // room for a re-run loop to show
	if n := runs.Load(); n > 2 {
		t.Errorf("cells ran %d times, want at most once each (2)", n)
	}
	if got, _ := c.MetricsSnapshot().CounterAt("jobs/jobs_failed"); got != 1 {
		t.Errorf("jobs_failed = %d, want 1", got)
	}
}

// TestDaemonRefusesRemoteWorkers: the single daemon's port takes no
// worker registrations, heartbeats or result batches, so nothing reaching
// it can write a cell result into its journal or cache.
func TestDaemonRefusesRemoteWorkers(t *testing.T) {
	c, srv := startDaemon(t, t.TempDir(), WorkerOptions{Parallelism: 1})
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := json.Marshal(RegisterRequest{URL: "http://127.0.0.1:1", Parallelism: 1})
	forged, _ := json.Marshal(ResultBatch{Worker: "w-0001", Outcomes: []CellOutcome{{Job: id, Index: 0, Attempts: 1, Result: &jobs.CellResult{Bench: "forged"}}}})
	for _, post := range []struct {
		path string
		body []byte
	}{
		{"/workers", reg},
		{"/workers/w-0001/heartbeat", nil},
		{"/results", forged},
	} {
		resp, err := http.Post(srv.URL+post.path, "application/json", bytes.NewReader(post.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s = HTTP %d, want 404", post.path, resp.StatusCode)
		}
	}
	if ws := c.Workers(); len(ws) != 1 || ws[0].URL != "" {
		t.Errorf("workers = %+v, want only the in-process one", ws)
	}
	if st := waitJob(t, c, id); st.State != jobs.StateDone {
		t.Fatalf("job = %s (%s), want done", st.State, st.Error)
	}
	got, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := inProcessResult(t, jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1}); !bytes.Equal(got, want) {
		t.Error("result differs from the in-process one")
	}
}

// TestMissingResultArtifactIsRebuilt: a done job whose result file is
// gone — lost, or left by a crash between the end record and the
// artifact when the end record was written first — still returns its
// result after a restart: NewCoordinator rebuilds the bytes from the
// journaled cells. A journal holding every cell but no end record (a
// crash between the artifact and the end record) resumes with nothing to
// run and writes the artifact again.
func TestMissingResultArtifactIsRebuilt(t *testing.T) {
	spec := testJobSpec()
	want := inProcessResult(t, spec)
	dir := t.TempDir()
	c1, _ := startDaemon(t, dir, WorkerOptions{Parallelism: 2})
	id, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, c1, id); st.State != jobs.StateDone {
		t.Fatalf("job = %s (%s), want done", st.State, st.Error)
	}
	drainNow(t, c1)
	if err := os.Remove(jobs.ResultPath(dir, id)); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCoordinator(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Result(id)
	if err != nil {
		t.Fatalf("done job without its artifact: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("rebuilt result differs from the in-process run (lens %d vs %d)", len(got), len(want))
	}

	path := jobs.JournalPath(dir, id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	if !bytes.Contains(data[cut:], []byte(`"type":"end"`)) {
		t.Fatalf("journal's last line %q is not the end record", data[cut:])
	}
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(jobs.ResultPath(dir, id)); err != nil {
		t.Fatal(err)
	}
	var reruns atomic.Int32
	c3, _ := startDaemon(t, dir, WorkerOptions{Parallelism: 2, InjectCellError: func(jobs.CellSpec, int) error {
		reruns.Add(1)
		return nil
	}})
	if st := waitJob(t, c3, id); st.State != jobs.StateDone {
		t.Fatalf("resumed job = %s (%s), want done", st.State, st.Error)
	}
	if n := reruns.Load(); n != 0 {
		t.Errorf("resume re-ran %d cells, want none", n)
	}
	if got, err := c3.Result(id); err != nil || !bytes.Equal(got, want) {
		t.Errorf("resumed result: err %v, equal %v", err, bytes.Equal(got, want))
	}
}

// ingestCell delivers one fabricated successful outcome for cell idx of
// job id, as a worker's result batch would.
func ingestCell(c *Coordinator, id string, idx int) error {
	res := jobs.CellResult{Bench: "atax", Config: "baseline", Cycles: int64(100 + idx), InstsIssued: 10}
	return c.ingestOutcomes(ResultBatch{Worker: "w", Outcomes: []CellOutcome{{Job: id, Index: idx, Attempts: 1, Result: &res}}})
}

// TestFinalizeWaitsForInFlightAppends pins the interleaving that once
// lost a cell: batch A marks cell 0 and is held after its journal append,
// then batch B completes cell 1, the job's last. B must not finalize the
// job while A still counts as in flight; A finalizes it once released,
// and the journal holds both cells before its end record.
func TestFinalizeWaitsForInFlightAppends(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCoordinator(CoordinatorOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline", "sched"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	c.step() // activates the job; with no worker nothing is dispatched
	t.Cleanup(func() {
		if c.active != nil {
			c.active.journal.Close()
		}
	})
	held, release := make(chan struct{}), make(chan struct{})
	var appends atomic.Int32
	c.afterJournal = func(string) {
		if appends.Add(1) == 1 {
			close(held)
			<-release
		}
	}
	errA := make(chan error, 1)
	go func() { errA <- ingestCell(c, id, 0) }()
	<-held
	if err := ingestCell(c, id, 1); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Job(id); st.State != jobs.StateRunning {
		t.Fatalf("job is %s while a marked cell's batch is in flight, want running", st.State)
	}
	close(release)
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Job(id); st.State != jobs.StateDone {
		t.Fatalf("job is %s (%s) after both batches, want done", st.State, st.Error)
	}
	data, err := os.ReadFile(jobs.JournalPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 || !strings.Contains(lines[3], `"type":"end"`) {
		t.Fatalf("journal = %q, want spec, two cells, then end", lines)
	}
}

// TestRebuildRefusesJournalMissingACell: a done journal that lacks a
// cell's record (as the lost-cell race left one) and has no result
// artifact loads as a failed job, instead of serving a rebuilt result
// with a zero-valued cell.
func TestRebuildRefusesJournalMissingACell(t *testing.T) {
	dir := t.TempDir()
	spec := jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline", "sched"}, Scale: 0.1}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	j, err := jobs.CreateJournal(dir, "job-0001", "", &spec)
	if err != nil {
		t.Fatal(err)
	}
	res := jobs.CellResult{Bench: "atax", Config: "baseline", Cycles: 100}
	if err := j.AppendCells([]jobs.CellRecord{{Index: 0, Attempts: 1, Result: &res}}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendEnd(0); err != nil {
		t.Fatal(err)
	}
	j.Close()

	c, err := NewCoordinator(CoordinatorOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := c.Job("job-0001")
	if st.State != jobs.StateFailed || !strings.Contains(st.Error, "lacks 1 of 2 cells") {
		t.Fatalf("job = %s (%q), want failed counting the missing cell", st.State, st.Error)
	}
	if _, err := os.Stat(jobs.ResultPath(dir, "job-0001")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a result artifact was written for the incomplete journal (stat: %v)", err)
	}
}

// TestJournalNamingDeletedConfigFails: an unfinished journal whose spec
// names a config this build no longer has (compression, now the baseline
// on the compressed mechanism) loads as a failed job, and the coordinator
// still starts and runs new jobs.
func TestJournalNamingDeletedConfigFails(t *testing.T) {
	dir := t.TempDir()
	spec := jobs.JobSpec{Cells: []jobs.CellSpec{{Bench: "atax", Config: "compression", Scale: 0.1, Seed: 1}}}
	j, err := jobs.CreateJournal(dir, "job-0001", "old", &spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	c, _ := startDaemon(t, dir, WorkerOptions{Parallelism: 1})
	st, _ := c.Job("job-0001")
	if st.State != jobs.StateFailed || !strings.Contains(st.Error, `unknown config "compression"`) {
		t.Fatalf("journal naming a deleted config = %s (%q), want failed naming it", st.State, st.Error)
	}
	id, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, c, id); st.State != jobs.StateDone {
		t.Fatalf("new job after the failed load = %s (%s), want done", st.State, st.Error)
	}
}
