// Package jobs holds the vocabulary and the durable record of gputlbd's
// jobs. A job is a grid of simulation cells (benchmark × named
// configuration, plus scale/seed parameters) submitted as JSON; the
// scheduler that runs it is internal/fabric's Coordinator, in every
// gputlbd mode. This package keeps what every mode and every client
// shares:
//
//   - the spec types: JobSpec and its Normalize, plus aliases of
//     internal/experiments' CellSpec, CellResult and RunCell, so a daemon
//     job and an in-process figure name and run cells with one
//     vocabulary;
//   - Status and State, a job's visible progress, and the submission
//     errors (ErrQueueFull → HTTP 429, ErrDraining → 503, ErrNotDone →
//     409);
//   - the journal and EncodeResult, the durability and byte-identity
//     contracts;
//   - Client, which talks to any gputlbd and is an experiments.Executor,
//     so a figure whose Options.Executor is a Client runs its cells as
//     one job.
//
// The layer's invariants:
//
//   - Durability: each completed cell is appended to a per-job JSONL
//     journal, and fsynced, before it counts as done. A crash between
//     appends loses at most the cells that were still in flight; a torn
//     final line (process killed mid-write) is detected and dropped on
//     load.
//   - Determinism: a cell is a pure function of its CellSpec, so a
//     resumed job's assembled result is byte-identical to an
//     uninterrupted run's. EncodeResult is the one encoder every path
//     uses; the result file it writes is the canonical artifact and is
//     served verbatim over HTTP.
//
// Job lifecycle: queued → running → done | failed, with checkpointed as
// the at-rest state of a job whose journal holds some but not all cells
// (a drained or killed run). Checkpointed jobs are re-enqueued when a
// daemon reopens the same journal directory.
package jobs
