package jobs

import (
	"fmt"

	"gputlb/internal/experiments"
	"gputlb/internal/workloads"
)

// CellSpec identifies one simulation cell. The experiments package owns
// the type, so a daemon job and an in-process figure name cells with one
// vocabulary.
type CellSpec = experiments.CellSpec

// ArrivalSpec is one churn arrival of a multi-tenant cell.
type ArrivalSpec = experiments.ArrivalSpec

// JobSpec is a submitted experiment grid. Either list Cells explicitly or
// give Benchmarks × Configs and let Normalize expand the cross product
// (benchmark-major, config-minor — the order the experiments package uses).
type JobSpec struct {
	// Name labels the job in statuses and results; optional.
	Name string `json:"name,omitempty"`
	// Benchmarks of the grid; nil or empty means the full suite.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Configs of the grid; required unless Cells is given.
	Configs []string `json:"configs,omitempty"`
	// Scale and Seed apply to every expanded grid cell.
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
	// Cells, when non-empty, is the explicit cell list and the grid
	// fields above are ignored.
	Cells []CellSpec `json:"cells,omitempty"`
}

// Normalize validates the spec and expands it to an explicit, fully
// defaulted cell list: grid fields become the benchmark-major cross
// product, empty Benchmarks becomes the full suite, and every cell passes
// CellSpec.Validate, which fills its defaults. Normalize is idempotent;
// the normalized spec is what the journal records, making resume
// self-contained.
func (s *JobSpec) Normalize() error {
	if len(s.Cells) == 0 {
		benches := s.Benchmarks
		if len(benches) == 0 {
			benches = workloads.Names()
		}
		if len(s.Configs) == 0 {
			return fmt.Errorf("jobs: spec needs configs (one of %v) or explicit cells", experiments.ConfigNames())
		}
		for _, b := range benches {
			for _, c := range s.Configs {
				s.Cells = append(s.Cells, CellSpec{Bench: b, Config: c, Scale: s.Scale, Seed: s.Seed})
			}
		}
		s.Benchmarks, s.Configs = nil, nil
	}
	for i := range s.Cells {
		if err := s.Cells[i].Validate(); err != nil {
			return fmt.Errorf("jobs: cell %d: %w", i, err)
		}
	}
	s.Scale, s.Seed = 0, 0
	return nil
}
