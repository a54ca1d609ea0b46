package jobs

import "gputlb/internal/experiments"

// CellResult is the durable outcome of one simulation cell; the journal
// stores one of these per completed cell.
type CellResult = experiments.CellResult

// Result is a completed job: its normalized spec and one CellResult per
// cell, in cell order. Serialized with stable field order and no
// run-varying fields (timings, retry counts live in Status instead), so a
// resumed job's result is byte-identical to an uninterrupted run's.
type Result struct {
	Name  string       `json:"name"`
	Spec  JobSpec      `json:"spec"`
	Cells []CellResult `json:"cells"`
}

// RunCell executes one cell in-process — the runner of every gputlbd
// worker, in-process or remote, and the same one in-process figures use.
var RunCell = experiments.RunCell
