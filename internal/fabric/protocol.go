package fabric

import (
	"time"

	"gputlb/internal/jobs"
)

// The wire protocol between coordinator and workers. Three exchanges:
// a worker registers (and re-registers when the coordinator forgets it),
// the coordinator pushes cell batches to the worker's /cells endpoint,
// and the worker flushes completed cells back to /results in batches.

// RegisterRequest is a worker's join request (POST /workers).
type RegisterRequest struct {
	// URL is the worker's advertised base URL; the coordinator dispatches
	// cell batches to URL + "/cells".
	URL string `json:"url"`
	// Parallelism is how many cells the worker runs concurrently. The
	// coordinator keeps at most 2x this many cells leased to the worker.
	Parallelism int `json:"parallelism"`
}

// RegisterResponse assigns the worker its id (echoed in heartbeats and
// result batches) and the period it must heartbeat at, a tenth of the
// coordinator's lease timeout. A worker refuses a response without a
// positive period.
type RegisterResponse struct {
	ID        string        `json:"id"`
	Heartbeat time.Duration `json:"heartbeat_ns"`
}

// WorkerStatus is one registered worker in GET /workers.
type WorkerStatus struct {
	ID          string `json:"id"`
	URL         string `json:"url"`
	Parallelism int    `json:"parallelism"`
	// Leased is how many cells the worker currently holds unfinished.
	Leased int `json:"leased"`
	// CellsDone counts results this worker delivered first (duplicates
	// from stolen leases are not credited).
	CellsDone int64 `json:"cells_done"`
	// LastSeenMS is milliseconds since the worker's last heartbeat or
	// result batch.
	LastSeenMS int64 `json:"last_seen_ms"`
}

// AssignedCell is one cell of a dispatched batch: its owning job, its
// index in that job's cell list, and its spec.
type AssignedCell struct {
	Job   string        `json:"job"`
	Index int           `json:"index"`
	Spec  jobs.CellSpec `json:"spec"`
}

// CellBatch is what the coordinator POSTs to a worker's /cells endpoint.
// The worker acks with 202 and runs the cells on its bounded pool.
type CellBatch struct {
	Cells []AssignedCell `json:"cells"`
}

// CellOutcome is one finished cell in a result batch: either Result or
// Error is set. Attempts counts the worker-local tries.
type CellOutcome struct {
	Job      string           `json:"job"`
	Index    int              `json:"index"`
	Attempts int              `json:"attempts"`
	Result   *jobs.CellResult `json:"result,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// ResultBatch is what a worker POSTs to the coordinator's /results
// endpoint — one flush of the worker's group-commit delivery loop. A 200
// response acks every outcome in the batch; on any other response the
// worker retries the whole batch (the coordinator deduplicates replays
// by (job, index), so at-least-once delivery is safe).
type ResultBatch struct {
	Worker   string        `json:"worker"`
	Outcomes []CellOutcome `json:"outcomes"`
}
