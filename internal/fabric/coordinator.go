package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gputlb/internal/jobs"
	"gputlb/internal/stats"
)

// CoordinatorOptions configures a fabric coordinator.
type CoordinatorOptions struct {
	// Dir is the journal directory; created if missing. A coordinator
	// restarted on the same directory resumes unfinished jobs from their
	// journals.
	Dir string
	// QueueCapacity bounds how many submitted jobs may wait (zero: 16);
	// further submissions fail with jobs.ErrQueueFull.
	QueueCapacity int
	// LeaseTimeout is how long a worker may go silent (no heartbeat, no
	// results) before it is dropped and its unfinished cells requeued
	// (zero: 10s). It sets the fabric's clock: workers heartbeat every
	// LeaseTimeout/10 (the period travels in RegisterResponse), an idle
	// worker steals a copy of a cell whose lease is older than
	// LeaseTimeout/5, and the scheduler scans every LeaseTimeout/100.
	LeaseTimeout time.Duration
	// CacheCapacity bounds the content-addressed result cache in cells
	// (zero: 4096).
	CacheCapacity int
}

// batchSize is the number of cells per dispatch batch: small enough to
// steal and rebalance at fine grain, large enough to amortize a
// dispatch round trip.
const batchSize = 4

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 16
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 10 * time.Second
	}
	return o
}

// heartbeatEvery is the period workers heartbeat at, well inside the
// lease: a worker must miss ten beats in a row to be dropped.
func (o CoordinatorOptions) heartbeatEvery() time.Duration { return o.LeaseTimeout / 10 }

// stealAfter is the lease age past which an idle worker is leased a copy
// of another worker's still-unfinished cell. First result wins; the
// loser's replay is dropped by deduplication.
func (o CoordinatorOptions) stealAfter() time.Duration { return o.LeaseTimeout / 5 }

// tickEvery is the dispatch/expiry scan period. Events (submissions,
// results, joins) additionally kick the scheduler immediately.
func (o CoordinatorOptions) tickEvery() time.Duration { return o.LeaseTimeout / 100 }

// fabJob is the coordinator's record of one submitted grid. All fields
// are guarded by the coordinator's mutex.
type fabJob struct {
	id        string
	name      string
	spec      *jobs.JobSpec
	state     jobs.State
	completed map[int]jobs.CellResult
	failed    map[int]string
	retries   int
	errMsg    string
}

// leaseKey names one cell of one job.
type leaseKey struct {
	job string
	idx int
}

// workerState is one registered worker. Guarded by the coordinator's
// mutex.
type workerState struct {
	id          string
	url         string // "" for the in-process worker
	parallelism int
	lastSeen    time.Time
	leased      map[leaseKey]bool // cells of active jobs leased to this worker
	done        int64
	// local is the in-process worker, nil for a remote one. Its batches
	// go straight onto its run queue and its leases never expire.
	local *Worker
}

// activeRun is the dispatch state of one executing job. Guarded by the
// coordinator's mutex.
type activeRun struct {
	jb      *fabJob
	journal *jobs.Journal
	// keys holds each cell's CellKey, its result cache key.
	keys []string
	// pending holds cell indexes awaiting a lease; entries may be stale
	// (already completed via another path) and are skipped at pop time.
	pending []int
	// leases maps a cell index to the workers currently holding it and
	// when each lease was granted.
	leases map[int]map[string]time.Time
	// hits holds the cells the current scheduler pass resolved from the
	// result cache; step journals them once it unlocks.
	hits []jobs.CellRecord
	// appending counts cells marked completed or failed whose journal
	// append has not returned; the job finalizes only at zero.
	appending int
}

// resolved reports whether cell idx has an outcome, completed or failed.
func (r *activeRun) resolved(idx int) bool {
	if _, done := r.jb.completed[idx]; done {
		return true
	}
	_, failed := r.jb.failed[idx]
	return failed
}

// runRecords is a batch of one run's cell outcomes for one journal write.
type runRecords struct {
	run  *activeRun
	recs []jobs.CellRecord
}

// fabricMetrics are the coordinator's operational counters: job
// lifecycle first, then dispatch and the worker registry.
type fabricMetrics struct {
	jobsSubmitted     atomic.Int64
	jobsResumed       atomic.Int64
	jobsCompleted     atomic.Int64
	jobsFailed        atomic.Int64
	jobsShed          atomic.Int64
	cellsCompleted    atomic.Int64
	cellsRecovered    atomic.Int64
	cellsRetried      atomic.Int64
	cellsFailed       atomic.Int64
	cellsFromCache    atomic.Int64
	cellsDispatched   atomic.Int64
	cellsStolen       atomic.Int64
	batchesDispatched atomic.Int64
	dispatchErrors    atomic.Int64
	resultsReceived   atomic.Int64
	resultsDuplicate  atomic.Int64
	resultsLate       atomic.Int64
	workersJoined     atomic.Int64
	workersExpired    atomic.Int64
}

// Coordinator is gputlbd's one scheduler: the job queue and journals,
// the worker registry, the cell scheduler with work-stealing, and the
// content-addressed result cache. It serves the /jobs API, and either
// runs its cells on one in-process worker (AddLocalWorker, the default
// mode) or serves the fabric endpoints remote workers use.
type Coordinator struct {
	opt   CoordinatorOptions
	reg   *stats.Registry
	met   fabricMetrics
	cache *Cache

	mu      sync.Mutex
	jobsMap map[string]*fabJob
	queue   []*fabJob
	// active holds the executing jobs, oldest activation first; their
	// pending cells are leased in that order.
	active  []*activeRun
	workers map[string]*workerState
	jseq    int
	wseq    int
	drain   bool
	// local is the in-process worker, nil in -coordinator mode. While it
	// is set the coordinator takes no remote workers.
	local *Worker

	kick      chan struct{}
	stop      chan struct{}
	loopDone  chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once

	// afterJournal, when non-nil, runs after a batch of outcomes is
	// journaled, while it still keeps the job from finalizing — a test
	// hook that holds a job at a known point.
	afterJournal func(jobID string)
	// journalFault, when non-nil, runs before a batch of job jobID's
	// outcomes is journaled; an error fails that append unwritten — a
	// test hook for a journal that cannot be written.
	journalFault func(jobID string) error
}

// NewCoordinator creates a coordinator over dir, loading any existing
// journals: terminal ones become done/failed records, unfinished ones
// are queued for resume ahead of new submissions. Call Start to begin
// scheduling.
func NewCoordinator(opt CoordinatorOptions) (*Coordinator, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, errors.New("fabric: CoordinatorOptions.Dir is required")
	}
	if opt.tickEvery() <= 0 {
		return nil, fmt.Errorf("fabric: lease timeout %v is too short to derive a scheduler tick from", opt.LeaseTimeout)
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	reg := stats.NewRegistry("gputlbd")
	c := &Coordinator{
		opt:      opt,
		reg:      reg,
		cache:    NewCache(opt.CacheCapacity),
		jobsMap:  map[string]*fabJob{},
		workers:  map[string]*workerState{},
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	c.cache.Register(reg.Child("result_cache"))
	j := reg.Child("jobs")
	j.CounterFunc("jobs_submitted", c.met.jobsSubmitted.Load)
	j.CounterFunc("jobs_resumed", c.met.jobsResumed.Load)
	j.CounterFunc("jobs_completed", c.met.jobsCompleted.Load)
	j.CounterFunc("jobs_failed", c.met.jobsFailed.Load)
	j.CounterFunc("jobs_shed", c.met.jobsShed.Load)
	j.CounterFunc("cells_completed", c.met.cellsCompleted.Load)
	j.CounterFunc("cells_recovered", c.met.cellsRecovered.Load)
	j.CounterFunc("cells_retried", c.met.cellsRetried.Load)
	j.CounterFunc("cells_failed", c.met.cellsFailed.Load)
	j.CounterFunc("queue_depth", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.queue))
	})
	j.GaugeFunc("jobs_active", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.active))
	})
	f := reg.Child("fabric")
	f.CounterFunc("cells_from_cache", c.met.cellsFromCache.Load)
	f.CounterFunc("cells_dispatched", c.met.cellsDispatched.Load)
	f.CounterFunc("cells_stolen", c.met.cellsStolen.Load)
	f.CounterFunc("batches_dispatched", c.met.batchesDispatched.Load)
	f.CounterFunc("dispatch_errors", c.met.dispatchErrors.Load)
	f.CounterFunc("results_received", c.met.resultsReceived.Load)
	f.CounterFunc("results_duplicate", c.met.resultsDuplicate.Load)
	f.CounterFunc("results_late", c.met.resultsLate.Load)
	f.CounterFunc("workers_joined", c.met.workersJoined.Load)
	f.CounterFunc("workers_expired", c.met.workersExpired.Load)
	f.GaugeFunc("workers", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.workers))
	})

	states, err := jobs.ScanJournals(opt.Dir)
	if err != nil {
		return nil, err
	}
	for _, st := range states {
		// A cell naming a config this build lacks would fail on resume.
		specErr, check := st.SpecErr, jobs.JobSpec{Cells: append([]jobs.CellSpec(nil), st.Spec.Cells...)}
		if err := check.Normalize(); specErr == "" && err != nil {
			specErr = "journaled spec: " + err.Error()
		}
		jb := &fabJob{
			id:        st.ID,
			name:      st.Name,
			spec:      st.Spec,
			completed: st.Completed,
			failed:    st.Failed,
		}
		switch {
		case st.Terminal && st.EndFailed == 0:
			jb.state = jobs.StateDone
			// A done journal without its artifact (lost, or left by an
			// older build that wrote the end record first) is rebuilt
			// from the journaled cells, unless one is missing (an older
			// build could journal a cell after the end record, or never).
			if _, err := os.Stat(jobs.ResultPath(opt.Dir, jb.id)); errors.Is(err, fs.ErrNotExist) {
				if n := len(jb.spec.Cells) - len(jb.completed); n > 0 {
					jb.state = jobs.StateFailed
					jb.errMsg = fmt.Sprintf("cannot rebuild the result: the journal lacks %d of %d cells", n, len(jb.spec.Cells))
				} else if err := c.writeResult(jb); err != nil {
					return nil, fmt.Errorf("fabric: rebuilding %s's result: %w", jb.id, err)
				}
			}
		case st.Terminal:
			jb.state = jobs.StateFailed
			jb.errMsg = fmt.Sprintf("%d cells failed permanently", st.EndFailed)
		case specErr != "":
			// Resuming would drop an unknown field's setting (mixing cells
			// computed with and without it) or run cells it cannot.
			jb.state = jobs.StateFailed
			jb.errMsg = "cannot resume: " + specErr
		default:
			jb.state = jobs.StateCheckpointed
			c.queue = append(c.queue, jb)
			c.met.jobsResumed.Add(1)
		}
		c.jobsMap[jb.id] = jb
		if n := seqOfJob(jb.id); n > c.jseq {
			c.jseq = n
		}
	}
	return c, nil
}

// seqOfJob extracts the sequence number from a "job-NNNN" id (0 if
// foreign).
func seqOfJob(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// Registry returns the stats registry holding the coordinator's metrics.
func (c *Coordinator) Registry() *stats.Registry { return c.reg }

// Cache returns the coordinator's content-addressed result cache.
func (c *Coordinator) Cache() *Cache { return c.cache }

// Start launches the scheduler loop. Call Drain to stop; a Start after
// Drain does nothing.
func (c *Coordinator) Start() {
	c.startOnce.Do(func() { go c.loop() })
}

func (c *Coordinator) loop() {
	defer close(c.loopDone)
	t := time.NewTicker(c.opt.tickEvery())
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
		case <-t.C:
		}
		c.step()
	}
}

func (c *Coordinator) kickLoop() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Submit validates, journals, and enqueues a job, returning its id. A
// full queue returns jobs.ErrQueueFull without journaling anything; a
// draining coordinator returns jobs.ErrDraining.
func (c *Coordinator) Submit(spec jobs.JobSpec) (string, error) {
	if err := spec.Normalize(); err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.drain {
		return "", jobs.ErrDraining
	}
	if len(c.queue) >= c.opt.QueueCapacity {
		c.met.jobsShed.Add(1)
		return "", jobs.ErrQueueFull
	}
	id := fmt.Sprintf("job-%04d", c.jseq+1)
	j, err := jobs.CreateJournal(c.opt.Dir, id, spec.Name, &spec)
	if err != nil {
		return "", err
	}
	j.Close()
	c.jseq++
	jb := &fabJob{
		id:        id,
		name:      spec.Name,
		spec:      &spec,
		state:     jobs.StateQueued,
		completed: map[int]jobs.CellResult{},
		failed:    map[int]string{},
	}
	c.jobsMap[id] = jb
	c.queue = append(c.queue, jb)
	c.met.jobsSubmitted.Add(1)
	c.kickLoop()
	return id, nil
}

// step is one scheduler pass: expire silent workers, lease pending cells
// (activating queued jobs while a worker has room to spare), journal the
// cells the result cache answered, fire the dispatches, and finalize
// every fully resolved job.
func (c *Coordinator) step() {
	now := time.Now()
	c.mu.Lock()
	c.expireWorkersLocked(now)
	batches, hits := c.planLocked(now)
	c.mu.Unlock()
	for _, h := range hits {
		// Nothing re-delivers a cache hit, so a failed write fails its job.
		c.appendOutcomes(h.run, h.recs, false)
	}
	for _, b := range batches {
		go c.dispatch(b)
	}
	c.maybeFinalize()
}

// AddLocalWorker attaches the in-process worker — gputlbd's default
// mode; call it at most once, before the coordinator serves HTTP. It is
// a remote Worker's runner pool, retry loop, fault-injection hook and
// group-commit delivery loop; only its flush differs: the coordinator
// hands it batches directly, and each flush is one call of the
// coordinator's ingest path — one journal write and fsync per job in the
// batch. There is no HTTP and no heartbeat, and its leases never expire.
// From then on the coordinator refuses remote workers. Of opt only
// Parallelism, MaxAttempts, RetryBackoff and InjectCellError apply; the
// worker's metrics join the coordinator's registry. Drain stops the
// worker.
func (c *Coordinator) AddLocalWorker(opt WorkerOptions) {
	w := newWorker(opt, c.reg)
	c.mu.Lock()
	id := c.addWorkerLocked("", w.opt.Parallelism, w)
	c.local = w
	c.mu.Unlock()
	w.mu.Lock()
	w.id = id
	w.mu.Unlock()
	// The ingest path fails the job of an outcome it cannot journal: this
	// worker never resends a flush.
	w.flush = func(outcomes []CellOutcome) error {
		return c.ingestOutcomes(ResultBatch{Worker: id, Outcomes: outcomes})
	}
	w.startRunners()
}

// runLocked returns job id's dispatch state, nil unless it is active.
func (c *Coordinator) runLocked(id string) *activeRun {
	for _, run := range c.active {
		if run.jb.id == id {
			return run
		}
	}
	return nil
}

// endRunLocked removes run from the active set and drops every lease on
// its cells; the caller settles the job's state and closes its journal.
func (c *Coordinator) endRunLocked(run *activeRun) {
	if i := slices.Index(c.active, run); i >= 0 {
		c.active = slices.Delete(c.active, i, i+1)
	}
	for idx, holders := range run.leases {
		for wid := range holders {
			if ws, ok := c.workers[wid]; ok {
				delete(ws.leased, leaseKey{run.jb.id, idx})
			}
		}
	}
}

// failRunLocked ends run as failed. Its journal gets no end record, so a
// coordinator restarted on the same directory resumes it.
func (c *Coordinator) failRunLocked(run *activeRun, err error) {
	c.endRunLocked(run)
	run.jb.state = jobs.StateFailed
	run.jb.errMsg = err.Error()
	run.journal.Close()
	c.met.jobsFailed.Add(1)
	c.kickLoop()
}

// activateLocked pops the next queued job and opens its journal; every
// cell without a journaled outcome starts pending.
func (c *Coordinator) activateLocked() {
	jb := c.queue[0]
	c.queue = c.queue[1:]
	j, err := jobs.OpenJournal(c.opt.Dir, jb.id)
	if err != nil {
		jb.state = jobs.StateFailed
		jb.errMsg = err.Error()
		c.met.jobsFailed.Add(1)
		return
	}
	c.met.cellsRecovered.Add(int64(len(jb.completed)))
	// A resumed job's earlier permanent failures get a fresh chance.
	clear(jb.failed)
	jb.state = jobs.StateRunning
	run := &activeRun{jb: jb, journal: j, keys: make([]string, len(jb.spec.Cells)), leases: map[int]map[string]time.Time{}}
	for i, cell := range jb.spec.Cells {
		run.keys[i] = CellKey(cell)
		if _, done := jb.completed[i]; !done {
			run.pending = append(run.pending, i)
		}
	}
	c.active = append(c.active, run)
}

// expireWorkersLocked drops workers silent past the lease timeout and
// returns their unfinished cells to the pending queue.
func (c *Coordinator) expireWorkersLocked(now time.Time) {
	for id, ws := range c.workers {
		if ws.local != nil || now.Sub(ws.lastSeen) <= c.opt.LeaseTimeout {
			continue
		}
		delete(c.workers, id)
		c.met.workersExpired.Add(1)
		c.releaseLeasesLocked(ws)
	}
}

// releaseLeasesLocked removes every lease ws holds.
func (c *Coordinator) releaseLeasesLocked(ws *workerState) {
	for k := range ws.leased {
		c.dropLeaseLocked(ws, k)
	}
}

// dropLeaseLocked removes ws's lease on cell k; a cell of an active job
// left with no other holder and no outcome goes back to pending.
func (c *Coordinator) dropLeaseLocked(ws *workerState, k leaseKey) {
	delete(ws.leased, k)
	run := c.runLocked(k.job)
	if run == nil {
		return
	}
	holders, ok := run.leases[k.idx]
	if !ok {
		return
	}
	delete(holders, ws.id)
	if len(holders) == 0 {
		delete(run.leases, k.idx)
		if !run.resolved(k.idx) {
			run.pending = append(run.pending, k.idx)
		}
	}
}

// plannedBatch is one dispatch about to be fired at a worker.
type plannedBatch struct {
	workerID string
	url      string
	local    *Worker
	cells    []AssignedCell
}

// room is how many more cells ws may hold leases on: two per runner, so
// a worker's next cells wait in its queue while it runs the current ones.
func (ws *workerState) room() int { return 2*ws.parallelism - len(ws.leased) }

// planLocked assigns pending cells of the active jobs, oldest job first,
// to workers with lease room, activating the next queued job while some
// worker has room that no pending cell can fill (and whenever none is
// active). Jobs whose cells wait on another job's keys take no room, so
// the active jobs are capped at the workers' total room, lest a burst of
// them bypass the queue bound. The room then left goes to stealing:
// copies of cells whose leases have aged past stealAfter. Cells the
// result cache answers are resolved on the way without a lease;
// planLocked returns them, by job, for the caller to journal after
// unlocking.
func (c *Coordinator) planLocked(now time.Time) ([]plannedBatch, []runRecords) {
	// A cell whose key is leased waits for that lease's outcome instead
	// of being simulated twice.
	inflight := map[string]bool{}
	for _, run := range c.active {
		for idx := range run.leases {
			inflight[run.keys[idx]] = true
		}
	}
	// Deterministic worker order keeps scheduling reproducible in tests.
	ids := make([]string, 0, len(c.workers))
	maxActive := 0
	for id, ws := range c.workers {
		ids = append(ids, id)
		maxActive += 2 * ws.parallelism
	}
	sort.Strings(ids)
	var batches []plannedBatch
	for {
		spare := false
		for _, id := range ids {
			ws := c.workers[id]
			for ws.room() > 0 {
				cells := c.takePendingLocked(ws, min(ws.room(), batchSize), now, inflight)
				if len(cells) == 0 {
					spare = true
					break
				}
				batches = append(batches, plannedBatch{workerID: id, url: ws.url, local: ws.local, cells: cells})
			}
		}
		if len(c.queue) == 0 || (len(c.active) > 0 && (!spare || len(c.active) >= maxActive)) {
			break
		}
		c.activateLocked()
	}
	for _, id := range ids {
		ws := c.workers[id]
		if ws.room() <= 0 {
			continue
		}
		if cells := c.stealLocked(ws, min(ws.room(), batchSize), now); len(cells) > 0 {
			batches = append(batches, plannedBatch{workerID: id, url: ws.url, local: ws.local, cells: cells})
		}
	}
	var hits []runRecords
	for _, run := range c.active {
		if len(run.hits) > 0 {
			hits = append(hits, runRecords{run, run.hits})
			run.hits = nil
		}
	}
	return batches, hits
}

// takePendingLocked leases up to n pending cells of the active jobs to
// ws, oldest job first. Stale entries (resolved or leased again) are
// dropped, cells the result cache answers are resolved into their run's
// hits, and cells whose key is in flight stay pending.
func (c *Coordinator) takePendingLocked(ws *workerState, n int, now time.Time, inflight map[string]bool) []AssignedCell {
	var cells []AssignedCell
	for _, run := range c.active {
		jb := run.jb
		kept, i := run.pending[:0], 0
		for ; i < len(run.pending) && len(cells) < n; i++ {
			idx := run.pending[i]
			if run.resolved(idx) || len(run.leases[idx]) > 0 {
				continue
			}
			key := run.keys[idx]
			if inflight[key] {
				kept = append(kept, idx)
				continue
			}
			if res, ok := c.cache.Get(key); ok {
				jb.completed[idx] = res
				c.met.cellsFromCache.Add(1)
				c.met.cellsCompleted.Add(1)
				run.hits = append(run.hits, jobs.CellRecord{Index: idx, Attempts: 1, Worker: "cache", Result: &res})
				run.appending++
				continue
			}
			c.leaseLocked(run, ws, idx, now)
			inflight[key] = true
			cells = append(cells, AssignedCell{Job: jb.id, Index: idx, Spec: jb.spec.Cells[idx]})
		}
		run.pending = append(kept, run.pending[i:]...)
		if len(cells) == n {
			break
		}
	}
	return cells
}

// stealLocked leases ws up to n copies of other workers' unfinished cells
// whose youngest lease is older than stealAfter, oldest job first. First
// result wins; the loser's replay is dropped by deduplication.
func (c *Coordinator) stealLocked(ws *workerState, n int, now time.Time) []AssignedCell {
	var cells []AssignedCell
	for _, run := range c.active {
		jb := run.jb
		var stealable []int
		for idx, holders := range run.leases {
			if ws.leased[leaseKey{jb.id, idx}] || run.resolved(idx) {
				continue
			}
			youngest := time.Time{}
			for _, at := range holders {
				if at.After(youngest) {
					youngest = at
				}
			}
			if now.Sub(youngest) > c.opt.stealAfter() {
				stealable = append(stealable, idx)
			}
		}
		sort.Ints(stealable)
		for _, idx := range stealable {
			if len(cells) >= n {
				return cells
			}
			c.leaseLocked(run, ws, idx, now)
			c.met.cellsStolen.Add(1)
			cells = append(cells, AssignedCell{Job: jb.id, Index: idx, Spec: jb.spec.Cells[idx]})
		}
	}
	return cells
}

func (c *Coordinator) leaseLocked(run *activeRun, ws *workerState, idx int, now time.Time) {
	holders := run.leases[idx]
	if holders == nil {
		holders = map[string]time.Time{}
		run.leases[idx] = holders
	}
	holders[ws.id] = now
	ws.leased[leaseKey{run.jb.id, idx}] = true
}

// dispatch fires one planned batch at its worker: onto the run queue of
// the in-process worker, over HTTP to a remote one. A failed dispatch
// releases the batch's leases so the cells requeue immediately (the
// worker itself is only dropped when its heartbeats stop).
func (c *Coordinator) dispatch(b plannedBatch) {
	var err error
	if b.local != nil {
		err = b.local.enqueue(b.cells)
	} else {
		err = c.post(b)
	}
	if err == nil {
		c.met.batchesDispatched.Add(1)
		c.met.cellsDispatched.Add(int64(len(b.cells)))
		return
	}
	c.met.dispatchErrors.Add(1)
	c.mu.Lock()
	if ws, ok := c.workers[b.workerID]; ok {
		for _, cell := range b.cells {
			c.dropLeaseLocked(ws, leaseKey{cell.Job, cell.Index})
		}
	}
	c.mu.Unlock()
	c.kickLoop()
}

// post sends a batch to a remote worker's /cells endpoint.
func (c *Coordinator) post(b plannedBatch) error {
	body, err := json.Marshal(CellBatch{Cells: b.cells})
	if err != nil {
		return err
	}
	resp, err := http.Post(coordURL(b.url, "/cells"), "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("fabric: worker %s: HTTP %d", b.workerID, resp.StatusCode)
	}
	return nil
}

// errBadBatch marks a result batch rejected whole, before any of its
// outcomes is applied; the HTTP layer answers it with 400.
var errBadBatch = errors.New("fabric: bad result batch")

// ingestOutcomes applies a worker's result batch: deduplicates replays
// and stolen-copy losers, journals each first-arrival before it is
// acknowledged (one journal write per job in the batch), and feeds the
// cache. A batch naming a cell index outside its job, or fewer than one
// attempt, is rejected whole with errBadBatch; otherwise an error means a
// journal write failed. A remote worker then resends the batch; the
// in-process worker does not, so its failed write fails the job instead.
func (c *Coordinator) ingestOutcomes(batch ResultBatch) error {
	now := time.Now()
	var groups []runRecords
	c.mu.Lock()
	for _, o := range batch.Outcomes {
		if jb, ok := c.jobsMap[o.Job]; ok && (o.Index < 0 || o.Index >= len(jb.spec.Cells)) {
			c.mu.Unlock()
			return fmt.Errorf("%w: %s has no cell %d", errBadBatch, o.Job, o.Index)
		}
		if o.Attempts < 1 {
			c.mu.Unlock()
			return fmt.Errorf("%w: %s cell %d reports %d attempts", errBadBatch, o.Job, o.Index, o.Attempts)
		}
	}
	ws, known := c.workers[batch.Worker]
	if known {
		ws.lastSeen = now // results are as good as a heartbeat
	}
	resent := !known || ws.local == nil
	for _, o := range batch.Outcomes {
		c.met.resultsReceived.Add(1)
		jb, ok := c.jobsMap[o.Job]
		if !ok {
			c.met.resultsLate.Add(1)
			continue
		}
		// A replay of a cell that already has a durable outcome is a
		// duplicate regardless of whether its job is still active — the
		// stolen-copy loser and the lost-ack resend both land here.
		_, done := jb.completed[o.Index]
		_, failedCell := jb.failed[o.Index]
		if done || failedCell {
			c.met.resultsDuplicate.Add(1)
			continue
		}
		run := c.runLocked(o.Job)
		if run == nil {
			c.met.resultsLate.Add(1)
			continue
		}
		jb.retries += o.Attempts - 1
		c.met.cellsRetried.Add(int64(o.Attempts - 1))
		run.appending++
		rec := jobs.CellRecord{Index: o.Index, Attempts: o.Attempts, Worker: batch.Worker}
		if o.Result != nil {
			jb.completed[o.Index] = *o.Result
			c.met.cellsCompleted.Add(1)
			res := *o.Result
			rec.Result = &res
			// Cache while the completion mark is taken: a concurrent batch
			// that finalizes the job must find every one of its cells cached,
			// or an identical resubmission races this batch's journal write.
			// A cell is deterministic, so its result stays valid even if the
			// append below fails and the cell is re-run.
			c.cache.Put(run.keys[o.Index], res)
		} else {
			jb.failed[o.Index] = o.Error
			c.met.cellsFailed.Add(1)
			rec.Error = o.Error
		}
		for wid := range run.leases[o.Index] {
			if holder, ok := c.workers[wid]; ok {
				delete(holder.leased, leaseKey{o.Job, o.Index})
			}
		}
		delete(run.leases, o.Index)
		if known && o.Result != nil {
			ws.done++
		}
		groups = appendRecord(groups, run, rec)
	}
	c.mu.Unlock()

	var errs []error
	for _, g := range groups {
		if err := c.appendOutcomes(g.run, g.recs, resent); err != nil {
			errs = append(errs, err)
		}
	}
	c.maybeFinalize()
	c.kickLoop()
	return errors.Join(errs...)
}

// appendRecord adds rec to run's batch in groups.
func appendRecord(groups []runRecords, run *activeRun, rec jobs.CellRecord) []runRecords {
	for i := range groups {
		if groups[i].run == run {
			groups[i].recs = append(groups[i].recs, rec)
			return groups
		}
	}
	return append(groups, runRecords{run, []jobs.CellRecord{rec}})
}

// appendOutcomes journals a batch of run's cell outcomes, counted in
// run.appending when marked, in one write and one fsync. On failure every
// in-memory mark of the batch is reverted; then, unless resent says the
// batch will be delivered again, the job fails.
func (c *Coordinator) appendOutcomes(run *activeRun, recs []jobs.CellRecord, resent bool) error {
	if len(recs) == 0 {
		return nil
	}
	var err error
	if c.journalFault != nil {
		err = c.journalFault(run.jb.id)
	}
	if err == nil {
		err = run.journal.AppendCells(recs)
	}
	if err == nil && c.afterJournal != nil {
		c.afterJournal(run.jb.id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	run.appending -= len(recs)
	if err != nil && slices.Contains(c.active, run) {
		for _, r := range recs {
			delete(run.jb.completed, r.Index)
			delete(run.jb.failed, r.Index)
			run.pending = append(run.pending, r.Index)
		}
		if !resent {
			c.failRunLocked(run, err)
		}
	}
	return err
}

// maybeFinalize terminates every active job whose cells all have a
// durable outcome (marked, and journaled: none appending): result
// artifact (when fully successful), end record, state transition, and
// scheduler kick for the next queued job. The artifact goes first: a
// crash before the end record leaves a job that resumes with nothing to
// run and rewrites it, never a done job without one.
func (c *Coordinator) maybeFinalize() {
	for {
		c.mu.Lock()
		i := slices.IndexFunc(c.active, func(run *activeRun) bool {
			return run.appending == 0 && len(run.jb.completed)+len(run.jb.failed) == len(run.jb.spec.Cells)
		})
		if i < 0 {
			c.mu.Unlock()
			return
		}
		run := c.active[i]
		c.endRunLocked(run)
		jb := run.jb
		nfailed := len(jb.failed)
		c.mu.Unlock()

		var err error
		if nfailed == 0 {
			err = c.writeResult(jb)
		}
		if err == nil {
			err = run.journal.AppendEnd(nfailed)
		}
		run.journal.Close()
		if err == nil && nfailed > 0 {
			err = fmt.Errorf("%d cells failed permanently", nfailed)
		}
		c.mu.Lock()
		if err != nil {
			jb.state, jb.errMsg = jobs.StateFailed, err.Error()
			c.met.jobsFailed.Add(1)
		} else {
			jb.state = jobs.StateDone
			c.met.jobsCompleted.Add(1)
		}
		c.mu.Unlock()
		c.kickLoop()
	}
}

// writeResult assembles the canonical result artifact with
// jobs.EncodeResult — byte-identical to an in-process run of the same
// cells — and writes it atomically next to the journal.
func (c *Coordinator) writeResult(jb *fabJob) error {
	c.mu.Lock()
	res := jobs.Result{Name: jb.name, Spec: *jb.spec, Cells: make([]jobs.CellResult, len(jb.spec.Cells))}
	for i := range jb.spec.Cells {
		res.Cells[i] = jb.completed[i]
	}
	c.mu.Unlock()
	out, err := jobs.EncodeResult(res)
	if err != nil {
		return err
	}
	tmp := jobs.ResultPath(c.opt.Dir, jb.id) + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, jobs.ResultPath(c.opt.Dir, jb.id))
}

// registerWorker admits (or re-admits) a worker, replacing any earlier
// registration advertising the same URL.
func (c *Coordinator) registerWorker(req RegisterRequest) (RegisterResponse, error) {
	if req.URL == "" {
		return RegisterResponse{}, errors.New("fabric: register needs a url")
	}
	par := req.Parallelism
	if par <= 0 {
		par = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, ws := range c.workers {
		if ws.url == req.URL {
			c.releaseLeasesLocked(ws)
			delete(c.workers, id)
		}
	}
	return RegisterResponse{ID: c.addWorkerLocked(req.URL, par, nil), Heartbeat: c.opt.heartbeatEvery()}, nil
}

// addWorkerLocked registers a worker under a fresh id and returns it.
func (c *Coordinator) addWorkerLocked(url string, parallelism int, local *Worker) string {
	c.wseq++
	id := fmt.Sprintf("w-%04d", c.wseq)
	c.workers[id] = &workerState{
		id:          id,
		url:         url,
		parallelism: parallelism,
		lastSeen:    time.Now(),
		leased:      map[leaseKey]bool{},
		local:       local,
	}
	c.met.workersJoined.Add(1)
	c.kickLoop()
	return id
}

// heartbeat refreshes a worker's liveness; false if the worker is
// unknown (it must re-register).
func (c *Coordinator) heartbeat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workers[id]
	if !ok {
		return false
	}
	ws.lastSeen = time.Now()
	return true
}

// Workers lists the registered workers, sorted by id.
func (c *Coordinator) Workers() []WorkerStatus {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, ws := range c.workers {
		out = append(out, WorkerStatus{
			ID:          ws.id,
			URL:         ws.url,
			Parallelism: ws.parallelism,
			Leased:      len(ws.leased),
			CellsDone:   ws.done,
			LastSeenMS:  now.Sub(ws.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Job returns the status of one job.
func (c *Coordinator) Job(id string) (jobs.Status, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	jb, ok := c.jobsMap[id]
	if !ok {
		return jobs.Status{}, false
	}
	return c.statusLocked(jb), true
}

// Jobs returns every known job's status, oldest first.
func (c *Coordinator) Jobs() []jobs.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.jobsMap))
	for id := range c.jobsMap {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]jobs.Status, 0, len(ids))
	for _, id := range ids {
		out = append(out, c.statusLocked(c.jobsMap[id]))
	}
	return out
}

func (c *Coordinator) statusLocked(jb *fabJob) jobs.Status {
	return jobs.Status{
		ID:          jb.id,
		Name:        jb.name,
		State:       jb.state,
		Cells:       len(jb.spec.Cells),
		CellsDone:   len(jb.completed),
		CellsFailed: len(jb.failed),
		Retries:     jb.retries,
		Error:       jb.errMsg,
	}
}

// Result returns the canonical result bytes of a done job — exactly the
// journaled artifact, byte-identical to an in-process run of the same
// spec. jobs.ErrNotDone if the job has not completed successfully.
func (c *Coordinator) Result(id string) ([]byte, error) {
	c.mu.Lock()
	jb, ok := c.jobsMap[id]
	var state jobs.State
	if ok {
		state = jb.state
	}
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fabric: unknown job %q", id)
	}
	if state != jobs.StateDone {
		return nil, fmt.Errorf("%w: %s is %s", jobs.ErrNotDone, id, state)
	}
	return os.ReadFile(jobs.ResultPath(c.opt.Dir, id))
}

// MetricsSnapshot materializes the current metrics tree.
func (c *Coordinator) MetricsSnapshot() *stats.Snapshot { return c.reg.Snapshot() }

// Drain stops the coordinator gracefully: no new submissions, the
// scheduler halts, the in-process worker starts no new cell while its
// in-flight ones finish and are journaled, and every active job is then
// left checkpointed — every acknowledged cell is already durable in its
// journal, so a coordinator restarted on the same directory resumes them
// in activation order with only the unacked cells re-dispatched. Waits for the
// scheduler and the in-process worker up to ctx's deadline.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.drain = true
	local := c.local
	if local != nil {
		local.cancel() // before stop closes: no local cell starts after it
	}
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.loopDone) }) // never started
	stopped := make(chan struct{})
	go func() {
		<-c.loopDone
		if local != nil {
			local.Close()
		}
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-ctx.Done():
		return context.Cause(ctx)
	}
	c.mu.Lock()
	for _, run := range c.active {
		run.jb.state = jobs.StateCheckpointed
		run.journal.Close()
	}
	c.active = nil
	c.mu.Unlock()
	return nil
}
