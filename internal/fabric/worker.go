package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gputlb/internal/jobs"
	"gputlb/internal/stats"
	"gputlb/internal/workloads"
)

// WorkerOptions configures a fabric worker daemon.
type WorkerOptions struct {
	// CoordinatorURL is the coordinator to join (the -join flag).
	CoordinatorURL string
	// AdvertiseURL is this worker's own base URL as the coordinator
	// reaches it; cell batches arrive at AdvertiseURL + "/cells".
	AdvertiseURL string
	// Parallelism bounds concurrently running cells (zero: GOMAXPROCS).
	Parallelism int
	// MaxAttempts bounds worker-local tries per cell (zero: 3);
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt (zero: 100ms).
	MaxAttempts  int
	RetryBackoff time.Duration
	// CellTimeout, when positive, fails a cell attempt that runs longer
	// (a retryable failure). The attempt's goroutine cannot be interrupted
	// mid-simulation; it finishes in the background and its result is
	// discarded.
	CellTimeout time.Duration
	// FlushSize and FlushWait tune the result batcher: a flush fires at
	// FlushSize outcomes (zero: 32) or FlushWait after the oldest
	// buffered outcome (zero: 50ms), whichever comes first.
	FlushSize int
	FlushWait time.Duration
	// HeartbeatEvery is the heartbeat period (zero: 1s). Must be well
	// under the coordinator's lease timeout.
	HeartbeatEvery time.Duration
	// Registry, when non-nil, receives the worker's metrics under
	// "worker" and "trace_cache" children; nil creates a private registry.
	Registry *stats.Registry
	// HTTPClient overrides http.DefaultClient for coordinator calls.
	HTTPClient *http.Client
	// InjectCellError, when non-nil, is consulted before each cell
	// attempt; a non-nil error fails the attempt. Fault-injection hook
	// for resilience tests — never set in normal operation.
	InjectCellError func(cell jobs.CellSpec, attempt int) error
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 100 * time.Millisecond
	}
	if o.FlushSize <= 0 {
		o.FlushSize = 32
	}
	if o.FlushWait <= 0 {
		o.FlushWait = 50 * time.Millisecond
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = time.Second
	}
	return o
}

// workerMetrics are the worker's operational counters.
type workerMetrics struct {
	cellsReceived atomic.Int64
	cellsRun      atomic.Int64
	cellsFailed   atomic.Int64
	cellsRetried  atomic.Int64
	flushes       atomic.Int64
	flushRetries  atomic.Int64
	registrations atomic.Int64
}

// Worker runs cells dispatched by a coordinator on a bounded runner pool,
// with worker-local retries, an optional per-attempt timeout and the
// fault-injection hook. A remote worker registers itself, heartbeats,
// accepts POST /cells batches and flushes completed cells back through
// the size + max-wait batcher; the in-process worker of gputlbd's
// default mode (Coordinator.AddLocalWorker) swaps only that transport.
// Every cell runs through jobs.RunCell, the runner in-process figures
// use, so any deployment computes cell-for-cell what a single box would.
type Worker struct {
	opt WorkerOptions
	reg *stats.Registry
	met workerMetrics

	ctx    context.Context
	cancel context.CancelFunc

	mu sync.Mutex
	id string // current registration; "" before the first register

	runCh chan AssignedCell
	// batcher buffers a remote worker's outcomes (nil for the in-process
	// worker, which has no transport to batch for).
	batcher *Batcher[CellOutcome]
	// deliver hands one finished cell to the coordinator: into the
	// batcher for a remote worker, straight into the coordinator's ingest
	// path for a local one.
	deliver func(CellOutcome)
	// sleep waits d, or reports false at once if the worker closes first;
	// tests replace it to observe backoffs without waiting them out.
	sleep func(d time.Duration) bool
	wg    sync.WaitGroup
}

// NewWorker creates a worker; Start registers it and begins serving.
func NewWorker(opt WorkerOptions) *Worker {
	opt = opt.withDefaults()
	reg := opt.Registry
	if reg == nil {
		reg = stats.NewRegistry("gputlbd")
	}
	w := &Worker{
		opt:   opt,
		reg:   reg,
		runCh: make(chan AssignedCell, 4096),
	}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	w.sleep = func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-w.ctx.Done():
			return false
		}
	}
	wr := reg.Child("worker")
	wr.CounterFunc("cells_received", w.met.cellsReceived.Load)
	wr.CounterFunc("cells_run", w.met.cellsRun.Load)
	wr.CounterFunc("cells_failed", w.met.cellsFailed.Load)
	wr.CounterFunc("cells_retried", w.met.cellsRetried.Load)
	wr.GaugeFunc("queue_depth", func() float64 { return float64(len(w.runCh)) })
	workloads.RegisterCacheStats(reg.Child("trace_cache"))
	return w
}

// Registry returns the stats registry holding the worker's metrics.
func (w *Worker) Registry() *stats.Registry { return w.reg }

func (w *Worker) httpClient() *http.Client {
	if w.opt.HTTPClient != nil {
		return w.opt.HTTPClient
	}
	return http.DefaultClient
}

func coordURL(base, path string) string {
	return strings.TrimSuffix(base, "/") + path
}

// Start registers with the coordinator and launches the runner pool, the
// result batcher and the heartbeat loop. It fails only if the initial
// registration cannot be completed (the coordinator must be reachable at
// join time; later outages are ridden out by heartbeat-triggered
// re-registration).
func (w *Worker) Start() error {
	wr := w.reg.Child("worker")
	wr.CounterFunc("result_flushes", w.met.flushes.Load)
	wr.CounterFunc("flush_retries", w.met.flushRetries.Load)
	wr.CounterFunc("registrations", w.met.registrations.Load)
	w.batcher = NewBatcher(w.opt.FlushSize, w.opt.FlushWait, w.flushOutcomes)
	w.deliver = func(o CellOutcome) { w.batcher.Add(o) }
	if err := w.register(); err != nil {
		return fmt.Errorf("fabric: joining %s: %w", w.opt.CoordinatorURL, err)
	}
	w.startRunners()
	w.wg.Add(1)
	go w.heartbeatLoop()
	return nil
}

func (w *Worker) startRunners() {
	for i := 0; i < w.opt.Parallelism; i++ {
		w.wg.Add(1)
		go w.runner()
	}
}

// Close stops starting cells, waits for in-flight ones to finish and be
// delivered, and flushes buffered results. Queued cells are dropped; the
// coordinator re-leases them.
func (w *Worker) Close() {
	w.cancel()
	w.wg.Wait()
	if w.batcher != nil {
		w.batcher.Close()
	}
}

// ID returns the worker's current coordinator-assigned id.
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// register joins (or re-joins) the coordinator, storing the assigned id.
func (w *Worker) register() error {
	body, err := json.Marshal(RegisterRequest{URL: w.opt.AdvertiseURL, Parallelism: w.opt.Parallelism})
	if err != nil {
		return err
	}
	resp, err := w.httpClient().Post(coordURL(w.opt.CoordinatorURL, "/workers"), "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("register: HTTP %d", resp.StatusCode)
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return err
	}
	w.mu.Lock()
	w.id = rr.ID
	w.mu.Unlock()
	w.met.registrations.Add(1)
	return nil
}

// heartbeatLoop announces liveness; a 404 (coordinator restarted or
// expired us) triggers re-registration, after which dispatches resume.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.opt.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-t.C:
		}
		resp, err := w.httpClient().Post(coordURL(w.opt.CoordinatorURL, "/workers/"+w.ID()+"/heartbeat"), "application/json", nil)
		if err != nil {
			continue // transient; the next beat retries
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusNotFound {
			// The coordinator no longer knows us; rejoin under a new id.
			_ = w.register()
		}
	}
}

// runner executes cells from the local queue, applying worker-local
// retries, and delivers their outcomes.
func (w *Worker) runner() {
	defer w.wg.Done()
	for {
		select {
		case <-w.ctx.Done():
			return
		case cell := <-w.runCh:
			if w.ctx.Err() != nil {
				return // closing: a queued cell is not started
			}
			out, ok := w.runCell(cell)
			if !ok {
				continue
			}
			w.met.cellsRun.Add(1)
			if out.Error != "" {
				w.met.cellsFailed.Add(1)
			}
			w.deliver(out)
		}
	}
}

// runCell tries one cell up to MaxAttempts times with exponential
// backoff. Cells are pure functions of their spec, so a retry after a
// transient failure (or a replay after a lost ack) recomputes the
// identical result. A worker that closes while a cell waits to retry
// reports nothing (ok is false): the cell was cancelled, not failed, and
// leaves no durable record, so it re-runs wherever its job resumes.
func (w *Worker) runCell(cell AssignedCell) (out CellOutcome, ok bool) {
	backoff := w.opt.RetryBackoff
	for attempt := 1; ; attempt++ {
		res, err := w.runOnce(cell.Spec, attempt)
		if err == nil {
			return CellOutcome{Job: cell.Job, Index: cell.Index, Attempts: attempt, Result: &res}, true
		}
		if attempt >= w.opt.MaxAttempts {
			return CellOutcome{Job: cell.Job, Index: cell.Index, Attempts: attempt, Error: err.Error()}, true
		}
		if w.ctx.Err() != nil {
			return CellOutcome{}, false
		}
		w.met.cellsRetried.Add(1)
		if !w.sleep(backoff) {
			return CellOutcome{}, false
		}
		backoff *= 2
	}
}

// runOnce runs a single attempt, applying the fault-injection hook and
// the per-attempt timeout.
func (w *Worker) runOnce(spec jobs.CellSpec, attempt int) (jobs.CellResult, error) {
	run := func() (jobs.CellResult, error) {
		if hook := w.opt.InjectCellError; hook != nil {
			if err := hook(spec, attempt); err != nil {
				return jobs.CellResult{}, err
			}
		}
		return jobs.RunCell(spec)
	}
	if w.opt.CellTimeout <= 0 {
		return run()
	}
	type result struct {
		res jobs.CellResult
		err error
	}
	ch := make(chan result, 1)
	go func() {
		res, err := run()
		ch <- result{res, err}
	}()
	t := time.NewTimer(w.opt.CellTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.res, r.err
	case <-t.C:
		return jobs.CellResult{}, fmt.Errorf("fabric: cell %s[%s] timed out after %v", spec.Bench, spec.Config, w.opt.CellTimeout)
	}
}

// flushOutcomes delivers one result batch to the coordinator, retrying
// with doubling backoff until acked or the worker closes. At-least-once:
// a batch whose ack is lost is resent and deduplicated coordinator-side.
func (w *Worker) flushOutcomes(outcomes []CellOutcome) error {
	backoff := w.opt.RetryBackoff
	for {
		err := w.postResults(outcomes)
		if err == nil {
			w.met.flushes.Add(1)
			return nil
		}
		if w.ctx.Err() != nil {
			return err
		}
		w.met.flushRetries.Add(1)
		if !w.sleep(backoff) {
			return err
		}
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
}

func (w *Worker) postResults(outcomes []CellOutcome) error {
	body, err := json.Marshal(ResultBatch{Worker: w.ID(), Outcomes: outcomes})
	if err != nil {
		return err
	}
	resp, err := w.httpClient().Post(coordURL(w.opt.CoordinatorURL, "/results"), "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("results: HTTP %d", resp.StatusCode)
	}
	return nil
}

// Handler returns the worker's HTTP API:
//
//	POST /cells    accept a CellBatch for execution; 202 on enqueue,
//	               429 when the local queue is full
//	GET  /healthz  liveness probe
//	GET  /metrics  worker metrics: flat "path value" text, or the full
//	               stats snapshot JSON with ?format=json
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cells", w.handleCells)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		writeMetrics(rw, r, w.reg.Snapshot())
	})
	return mux
}

func (w *Worker) handleCells(rw http.ResponseWriter, r *http.Request) {
	var batch CellBatch
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decoding cell batch: %w", err))
		return
	}
	if err := w.enqueue(batch.Cells); err != nil {
		writeError(rw, http.StatusTooManyRequests, err)
		return
	}
	writeJSON(rw, http.StatusAccepted, map[string]int{"accepted": len(batch.Cells)})
}

// enqueue puts a dispatched batch on the run queue, refusing it whole
// when it does not fit.
func (w *Worker) enqueue(cells []AssignedCell) error {
	if len(cells) > cap(w.runCh)-len(w.runCh) {
		return fmt.Errorf("fabric: worker queue full (%d cells buffered)", len(w.runCh))
	}
	for _, cell := range cells {
		w.met.cellsReceived.Add(1)
		w.runCh <- cell
	}
	return nil
}
