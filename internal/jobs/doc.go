// Package jobs turns experiment sweeps into durable, resumable units of
// work — the engine behind the gputlbd daemon. A job is a grid of
// simulation cells (benchmark × named configuration, plus scale/seed
// parameters) submitted as JSON; the manager runs its cells on the
// bounded internal/parallel pool and journals every completed cell, so a
// killed process resumes with only the unfinished cells re-run.
//
// The cell type, its config vocabulary and its runner belong to
// internal/experiments; CellSpec, CellResult and RunCell here are aliases.
// Client is an experiments.Executor, so a figure whose Options.Executor
// is a Client runs its cells as one job.
//
// The layer's invariants:
//
//   - Durability: each completed cell is appended to a per-job JSONL
//     journal before it counts as done. A crash between appends loses at
//     most the cells that were still in flight; a torn final line
//     (process killed mid-write) is detected and dropped on load.
//   - Determinism: a cell is a pure function of its CellSpec, so a
//     resumed job's assembled result is byte-identical to an
//     uninterrupted run's. The result file is the canonical artifact and
//     is served verbatim over HTTP.
//   - Bounded resources: the submission queue has fixed capacity and
//     sheds load with ErrQueueFull (HTTP 429) instead of growing without
//     bound; cells run on a bounded worker pool.
//   - Fault tolerance: a failing cell is retried with exponential
//     backoff up to MaxAttempts; an optional per-cell timeout converts a
//     wedged cell into a retryable failure. Retries and failures are
//     surfaced through the stats registry behind /metrics.
//
// Job lifecycle: queued → running → done | failed, with checkpointed as
// the at-rest state of a job whose journal holds some but not all cells
// (a drained or killed run). Checkpointed jobs are re-enqueued when a new
// manager opens the same journal directory.
package jobs
