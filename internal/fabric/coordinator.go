package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gputlb/internal/jobs"
	"gputlb/internal/stats"
)

// CoordinatorOptions configures a fabric coordinator.
type CoordinatorOptions struct {
	// Dir is the journal directory; created if missing. Journals and
	// result files are format-identical to the single-process manager's,
	// and a restarted coordinator resumes unfinished jobs from them.
	Dir string
	// QueueCapacity bounds how many submitted jobs may wait (zero: 16);
	// further submissions fail with jobs.ErrQueueFull.
	QueueCapacity int
	// BatchSize is the number of cells per dispatch batch (zero: 4).
	// Smaller batches steal and rebalance at finer grain; larger ones
	// amortize dispatch round trips.
	BatchSize int
	// LeaseTimeout is how long a worker may go silent (no heartbeat, no
	// results) before it is dropped and its unfinished cells requeued
	// (zero: 10s).
	LeaseTimeout time.Duration
	// StealAfter is the lease age past which an idle worker is leased a
	// copy of another worker's still-unfinished cell (zero: 2s). First
	// result wins; the loser's replay is dropped by deduplication.
	StealAfter time.Duration
	// TickEvery is the dispatch/expiry scan period (zero: 100ms). Events
	// (submissions, results, joins) additionally kick the scheduler
	// immediately.
	TickEvery time.Duration
	// CacheCapacity bounds the content-addressed result cache in cells
	// (zero: 4096).
	CacheCapacity int
	// Registry, when non-nil, receives coordinator metrics under
	// "fabric" and "result_cache" children; nil creates a private one.
	Registry *stats.Registry
	// HTTPClient overrides http.DefaultClient for worker dispatches.
	HTTPClient *http.Client
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 16
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 4
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 10 * time.Second
	}
	if o.StealAfter <= 0 {
		o.StealAfter = 2 * time.Second
	}
	if o.TickEvery <= 0 {
		o.TickEvery = 100 * time.Millisecond
	}
	return o
}

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

// workerState is one registered worker. Guarded by the coordinator's
// mutex.
type workerState struct {
	id          string
	url         string
	parallelism int
	lastSeen    time.Time
	leased      map[int]bool // active-job cell indexes leased to this worker
	done        int64
}

// activeRun is the dispatch state of the currently executing job.
type activeRun struct {
	jb      *fabJob
	journal *jobs.Journal
	// pending holds cell indexes awaiting a lease; entries may be stale
	// (already completed via another path) and are skipped at pop time.
	pending []int
	// leases maps a cell index to the workers currently holding it and
	// when each lease was granted.
	leases map[int]map[string]time.Time
}

// fabricMetrics are the coordinator's operational counters.
type fabricMetrics struct {
	jobsSubmitted     atomic.Int64
	jobsResumed       atomic.Int64
	jobsCompleted     atomic.Int64
	jobsFailed        atomic.Int64
	jobsShed          atomic.Int64
	cellsCompleted    atomic.Int64
	cellsRecovered    atomic.Int64
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

// Coordinator owns the distributed sweep: the job queue and journals,
// the worker registry, the cell scheduler with work-stealing, and the
// content-addressed result cache. It serves the single-process daemon's
// /jobs API unchanged — clients cannot tell a coordinator from a lone
// gputlbd — plus the fabric endpoints workers use.
type Coordinator struct {
	opt   CoordinatorOptions
	reg   *stats.Registry
	met   fabricMetrics
	cache *Cache
	httpc *http.Client

	mu      sync.Mutex
	jobsMap map[string]*fabJob
	order   []string
	queue   []*fabJob
	active  *activeRun
	workers map[string]*workerState
	jseq    int
	wseq    int
	drain   bool

	kick     chan struct{}
	stop     chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once
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
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	reg := opt.Registry
	if reg == nil {
		reg = stats.NewRegistry("gputlbd")
	}
	httpc := opt.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	c := &Coordinator{
		opt:      opt,
		reg:      reg,
		cache:    NewCache(opt.CacheCapacity),
		httpc:    httpc,
		jobsMap:  map[string]*fabJob{},
		workers:  map[string]*workerState{},
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	c.cache.Register(reg.Child("result_cache"))
	f := reg.Child("fabric")
	f.CounterFunc("jobs_submitted", c.met.jobsSubmitted.Load)
	f.CounterFunc("jobs_resumed", c.met.jobsResumed.Load)
	f.CounterFunc("jobs_completed", c.met.jobsCompleted.Load)
	f.CounterFunc("jobs_failed", c.met.jobsFailed.Load)
	f.CounterFunc("jobs_shed", c.met.jobsShed.Load)
	f.CounterFunc("cells_completed", c.met.cellsCompleted.Load)
	f.CounterFunc("cells_recovered", c.met.cellsRecovered.Load)
	f.CounterFunc("cells_failed", c.met.cellsFailed.Load)
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
	f.GaugeFunc("queue_depth", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.queue))
	})

	states, err := jobs.ScanJournals(opt.Dir)
	if err != nil {
		return nil, err
	}
	for _, st := range states {
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
		case st.Terminal:
			jb.state = jobs.StateFailed
			jb.errMsg = fmt.Sprintf("%d cells failed permanently", st.EndFailed)
		default:
			jb.state = jobs.StateCheckpointed
			c.queue = append(c.queue, jb)
			c.met.jobsResumed.Add(1)
		}
		c.jobsMap[jb.id] = jb
		c.order = append(c.order, jb.id)
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

// Start launches the scheduler loop. Call Drain to stop.
func (c *Coordinator) Start() {
	go c.loop()
}

func (c *Coordinator) loop() {
	defer close(c.loopDone)
	t := time.NewTicker(c.opt.TickEvery)
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

// Submit validates, journals, and enqueues a job, returning its id.
// Exactly the manager's submission contract: jobs.ErrQueueFull past the
// bounded queue, jobs.ErrDraining while shutting down.
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
	c.order = append(c.order, id)
	c.queue = append(c.queue, jb)
	c.met.jobsSubmitted.Add(1)
	c.kickLoop()
	return id, nil
}

// step is one scheduler pass: expire silent workers, activate the next
// job if none is running, resolve cache hits, plan and fire dispatches,
// and finalize a fully resolved job.
func (c *Coordinator) step() {
	now := time.Now()
	var cacheHits []journalAppend
	c.mu.Lock()
	c.expireWorkersLocked(now)
	cacheHits = c.activateLocked()
	batches := c.planLocked(now)
	c.mu.Unlock()
	c.appendOutcomes(cacheHits)
	for _, b := range batches {
		go c.dispatch(b)
	}
	c.maybeFinalize()
}

// journalAppend is one deferred journal write (performed outside the
// coordinator lock; the journal serializes its own appends).
type journalAppend struct {
	journal  *jobs.Journal
	index    int
	attempts int
	worker   string
	result   *jobs.CellResult
	errMsg   string
}

// activateLocked pops the next queued job when none is active, opening
// its journal and resolving every cell already answerable from the
// content-addressed cache. Returns the journal appends for those cache
// hits (written by the caller after unlocking).
func (c *Coordinator) activateLocked() []journalAppend {
	if c.active != nil || len(c.queue) == 0 {
		return nil
	}
	jb := c.queue[0]
	c.queue = c.queue[1:]
	j, err := jobs.OpenJournal(c.opt.Dir, jb.id)
	if err != nil {
		jb.state = jobs.StateFailed
		jb.errMsg = err.Error()
		c.met.jobsFailed.Add(1)
		return nil
	}
	c.met.cellsRecovered.Add(int64(len(jb.completed)))
	// A resumed job's earlier permanent failures get a fresh chance, as
	// under the single-process manager.
	clear(jb.failed)
	jb.state = jobs.StateRunning
	run := &activeRun{jb: jb, journal: j, leases: map[int]map[string]time.Time{}}
	var hits []journalAppend
	for i := range jb.spec.Cells {
		if _, done := jb.completed[i]; done {
			continue
		}
		if res, ok := c.cache.Get(CellKey(jb.spec.Cells[i])); ok {
			jb.completed[i] = res
			c.met.cellsFromCache.Add(1)
			c.met.cellsCompleted.Add(1)
			hits = append(hits, journalAppend{journal: j, index: i, attempts: 1, worker: "cache", result: &res})
			continue
		}
		run.pending = append(run.pending, i)
	}
	c.active = run
	return hits
}

// expireWorkersLocked drops workers silent past the lease timeout and
// returns their unfinished cells to the pending queue.
func (c *Coordinator) expireWorkersLocked(now time.Time) {
	for id, ws := range c.workers {
		if now.Sub(ws.lastSeen) <= c.opt.LeaseTimeout {
			continue
		}
		delete(c.workers, id)
		c.met.workersExpired.Add(1)
		c.releaseLeasesLocked(ws)
	}
}

// releaseLeasesLocked removes every lease ws holds; cells left with no
// other lease and no result go back to pending.
func (c *Coordinator) releaseLeasesLocked(ws *workerState) {
	if c.active == nil {
		return
	}
	for idx := range ws.leased {
		if holders, ok := c.active.leases[idx]; ok {
			delete(holders, ws.id)
			if len(holders) == 0 {
				delete(c.active.leases, idx)
				if !c.cellResolvedLocked(idx) {
					c.active.pending = append(c.active.pending, idx)
				}
			}
		}
	}
	ws.leased = map[int]bool{}
}

func (c *Coordinator) cellResolvedLocked(idx int) bool {
	jb := c.active.jb
	if _, done := jb.completed[idx]; done {
		return true
	}
	_, failed := jb.failed[idx]
	return failed
}

// plannedBatch is one dispatch about to be fired at a worker.
type plannedBatch struct {
	workerID string
	url      string
	cells    []AssignedCell
}

// planLocked assigns pending cells to workers with lease room, then — if
// the pending queue is dry but the job unfinished — steals: idle room is
// given copies of cells whose existing leases have aged past StealAfter.
func (c *Coordinator) planLocked(now time.Time) []plannedBatch {
	if c.active == nil {
		return nil
	}
	jb := c.active.jb
	var batches []plannedBatch
	// Deterministic worker order keeps scheduling reproducible in tests.
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ws := c.workers[id]
		room := 2*ws.parallelism - len(ws.leased)
		for room > 0 {
			n := min(room, c.opt.BatchSize)
			cells := c.takePendingLocked(ws, n, now)
			if len(cells) == 0 {
				break
			}
			batches = append(batches, plannedBatch{workerID: id, url: ws.url, cells: cells})
			room -= len(cells)
		}
	}
	// Work-stealing pass: only once nothing is pending.
	if c.pendingAvailableLocked() {
		return batches
	}
	for _, id := range ids {
		ws := c.workers[id]
		room := 2*ws.parallelism - len(ws.leased)
		if room <= 0 {
			continue
		}
		var cells []AssignedCell
		stealable := make([]int, 0)
		for idx, holders := range c.active.leases {
			if ws.leased[idx] || c.cellResolvedLocked(idx) {
				continue
			}
			youngest := time.Time{}
			for _, at := range holders {
				if at.After(youngest) {
					youngest = at
				}
			}
			if now.Sub(youngest) > c.opt.StealAfter {
				stealable = append(stealable, idx)
			}
		}
		sort.Ints(stealable)
		for _, idx := range stealable {
			if len(cells) >= min(room, c.opt.BatchSize) {
				break
			}
			c.leaseLocked(ws, idx, now)
			c.met.cellsStolen.Add(1)
			cells = append(cells, AssignedCell{Job: jb.id, Index: idx, Spec: jb.spec.Cells[idx]})
		}
		if len(cells) > 0 {
			batches = append(batches, plannedBatch{workerID: id, url: ws.url, cells: cells})
		}
	}
	return batches
}

func (c *Coordinator) pendingAvailableLocked() bool {
	for _, idx := range c.active.pending {
		if !c.cellResolvedLocked(idx) && len(c.active.leases[idx]) == 0 {
			return true
		}
	}
	return false
}

// takePendingLocked pops up to n dispatchable cells off the pending
// queue, leasing each to ws.
func (c *Coordinator) takePendingLocked(ws *workerState, n int, now time.Time) []AssignedCell {
	jb := c.active.jb
	var cells []AssignedCell
	for len(cells) < n && len(c.active.pending) > 0 {
		idx := c.active.pending[0]
		c.active.pending = c.active.pending[1:]
		// Stale entries: resolved elsewhere or already leased again.
		if c.cellResolvedLocked(idx) || len(c.active.leases[idx]) > 0 {
			continue
		}
		c.leaseLocked(ws, idx, now)
		cells = append(cells, AssignedCell{Job: jb.id, Index: idx, Spec: jb.spec.Cells[idx]})
	}
	return cells
}

func (c *Coordinator) leaseLocked(ws *workerState, idx int, now time.Time) {
	holders := c.active.leases[idx]
	if holders == nil {
		holders = map[string]time.Time{}
		c.active.leases[idx] = holders
	}
	holders[ws.id] = now
	ws.leased[idx] = true
}

// dispatch fires one planned batch at its worker. A failed dispatch
// releases the batch's leases so the cells requeue immediately (the
// worker itself is only dropped when its heartbeats stop).
func (c *Coordinator) dispatch(b plannedBatch) {
	body, err := json.Marshal(CellBatch{Cells: b.cells})
	if err == nil {
		var resp *http.Response
		resp, err = c.httpc.Post(coordURL(b.url, "/cells"), "application/json", bytes.NewReader(body))
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code != http.StatusAccepted {
				err = fmt.Errorf("fabric: worker %s: HTTP %d", b.workerID, code)
			}
		}
	}
	if err == nil {
		c.met.batchesDispatched.Add(1)
		c.met.cellsDispatched.Add(int64(len(b.cells)))
		return
	}
	c.met.dispatchErrors.Add(1)
	c.mu.Lock()
	if ws, ok := c.workers[b.workerID]; ok && c.active != nil && c.active.jb.id == b.cells[0].Job {
		for _, cell := range b.cells {
			if holders, ok := c.active.leases[cell.Index]; ok {
				delete(holders, b.workerID)
				if len(holders) == 0 {
					delete(c.active.leases, cell.Index)
					if !c.cellResolvedLocked(cell.Index) {
						c.active.pending = append(c.active.pending, cell.Index)
					}
				}
			}
			delete(ws.leased, cell.Index)
		}
	}
	c.mu.Unlock()
	c.kickLoop()
}

// ingestOutcomes applies a worker's result batch: deduplicates replays
// and stolen-copy losers, journals each first-arrival before it is
// acknowledged, and feeds the cache. Returns an error only when the
// journal write fails — the one case the worker must retry.
func (c *Coordinator) ingestOutcomes(batch ResultBatch) error {
	now := time.Now()
	var appends []journalAppend
	c.mu.Lock()
	if ws, ok := c.workers[batch.Worker]; ok {
		ws.lastSeen = now // results are as good as a heartbeat
	}
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
		if c.active == nil || c.active.jb != jb {
			c.met.resultsLate.Add(1)
			continue
		}
		jb.retries += o.Attempts - 1
		ja := journalAppend{journal: c.active.journal, index: o.Index, attempts: o.Attempts, worker: batch.Worker}
		if o.Result != nil {
			jb.completed[o.Index] = *o.Result
			c.met.cellsCompleted.Add(1)
			res := *o.Result
			ja.result = &res
			// Cache while the completion mark is taken: a concurrent batch
			// that finalizes the job must find every one of its cells cached,
			// or an identical resubmission races this batch's journal write.
			// A cell is deterministic, so its result stays valid even if the
			// append below fails and the cell is re-run.
			c.cache.Put(CellKey(jb.spec.Cells[o.Index]), res)
		} else {
			jb.failed[o.Index] = o.Error
			c.met.cellsFailed.Add(1)
			ja.errMsg = o.Error
		}
		if holders, ok := c.active.leases[o.Index]; ok {
			for wid := range holders {
				if ws, ok := c.workers[wid]; ok {
					delete(ws.leased, o.Index)
				}
			}
			delete(c.active.leases, o.Index)
		}
		if ws, ok := c.workers[batch.Worker]; ok && o.Result != nil {
			ws.done++
		}
		appends = append(appends, ja)
	}
	c.mu.Unlock()

	if err := c.appendOutcomes(appends); err != nil {
		return err
	}
	c.maybeFinalize()
	c.kickLoop()
	return nil
}

// appendOutcomes writes deferred journal records; on failure the
// corresponding in-memory marks are reverted so a retry can re-journal.
func (c *Coordinator) appendOutcomes(appends []journalAppend) error {
	for i, ja := range appends {
		var err error
		if ja.result != nil {
			err = ja.journal.AppendCell(ja.index, ja.attempts, ja.worker, *ja.result)
		} else {
			err = ja.journal.AppendFail(ja.index, ja.attempts, ja.worker, ja.errMsg)
		}
		if err != nil {
			c.mu.Lock()
			if c.active != nil && c.active.journal == ja.journal {
				for _, undo := range appends[i:] {
					delete(c.active.jb.completed, undo.index)
					delete(c.active.jb.failed, undo.index)
					c.active.pending = append(c.active.pending, undo.index)
				}
			}
			c.mu.Unlock()
			return err
		}
	}
	return nil
}

// maybeFinalize terminates the active job once every cell has a durable
// outcome: end record, result artifact (when fully successful), state
// transition, and scheduler kick for the next queued job.
func (c *Coordinator) maybeFinalize() {
	c.mu.Lock()
	a := c.active
	if a == nil {
		c.mu.Unlock()
		return
	}
	jb := a.jb
	if len(jb.completed)+len(jb.failed) < len(jb.spec.Cells) {
		c.mu.Unlock()
		return
	}
	c.active = nil
	for _, ws := range c.workers {
		ws.leased = map[int]bool{}
	}
	nfailed := len(jb.failed)
	c.mu.Unlock()

	fail := func(err error) {
		c.mu.Lock()
		jb.state = jobs.StateFailed
		jb.errMsg = err.Error()
		c.mu.Unlock()
		c.met.jobsFailed.Add(1)
	}
	if err := a.journal.AppendEnd(nfailed); err != nil {
		a.journal.Close()
		fail(err)
		return
	}
	a.journal.Close()
	if nfailed > 0 {
		fail(fmt.Errorf("%d cells failed permanently", nfailed))
		return
	}
	if err := c.writeResult(jb); err != nil {
		fail(err)
		return
	}
	c.mu.Lock()
	jb.state = jobs.StateDone
	c.mu.Unlock()
	c.met.jobsCompleted.Add(1)
	c.kickLoop()
}

// writeResult assembles the canonical result artifact — the same encoder
// and layout as the single-process manager, hence byte-identical — and
// writes it atomically next to the journal.
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
	c.wseq++
	id := fmt.Sprintf("w-%04d", c.wseq)
	c.workers[id] = &workerState{
		id:          id,
		url:         req.URL,
		parallelism: par,
		lastSeen:    time.Now(),
		leased:      map[int]bool{},
	}
	c.met.workersJoined.Add(1)
	c.kickLoop()
	return RegisterResponse{ID: id}, nil
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
	ids := append([]string(nil), c.order...)
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
// journaled artifact, byte-identical to a single-daemon run of the same
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
// scheduler halts, and the active job (if any) is left checkpointed —
// every acknowledged cell is already durable in its journal, so a
// coordinator restarted on the same directory resumes with only the
// unacked cells re-dispatched. Waits for the scheduler up to ctx's
// deadline.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.drain = true
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	select {
	case <-c.loopDone:
	case <-ctx.Done():
		return context.Cause(ctx)
	}
	c.mu.Lock()
	if c.active != nil {
		c.active.jb.state = jobs.StateCheckpointed
		c.active.journal.Close()
		c.active = nil
	}
	c.mu.Unlock()
	return nil
}
