package jobs

import "errors"

// State is a job's position in its lifecycle.
type State string

// Job lifecycle states. A checkpointed job has a journal with some but
// not all cells — the at-rest state after a drain or kill — and becomes
// running again when a daemon reopens its journal directory.
const (
	StateQueued       State = "queued"
	StateRunning      State = "running"
	StateCheckpointed State = "checkpointed"
	StateDone         State = "done"
	StateFailed       State = "failed"
)

// Status is a job's externally visible progress snapshot.
type Status struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	State       State  `json:"state"`
	Cells       int    `json:"cells"`
	CellsDone   int    `json:"cells_done"`
	CellsFailed int    `json:"cells_failed,omitempty"`
	Retries     int    `json:"retries,omitempty"`
	Error       string `json:"error,omitempty"`
}

// Errors the submission path returns; the HTTP layer maps them to 429
// and 503 respectively.
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrDraining  = errors.New("jobs: daemon draining")
)

// ErrNotDone reports a result request for a job that has not completed.
var ErrNotDone = errors.New("jobs: job not done")
