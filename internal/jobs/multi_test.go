package jobs

import (
	"reflect"
	"strings"
	"testing"

	"gputlb/internal/experiments"
	"gputlb/internal/multi"
	"gputlb/internal/sched"
	"gputlb/internal/workloads"
)

func TestNormalizeMultiCells(t *testing.T) {
	s := JobSpec{Cells: []CellSpec{
		{Tenants: []string{"bfs", "atax"}, Config: "multi-shared-spatial", Scale: 0.1},
	}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	c := s.Cells[0]
	if c.Bench != "bfs+atax" || c.Seed != 1 {
		t.Errorf("normalized multi cell = %+v", c)
	}

	bad := []JobSpec{
		{Cells: []CellSpec{{Tenants: []string{"bfs"}, Config: "multi-shared-spatial"}}},
		{Cells: []CellSpec{{Tenants: []string{"bfs", "nope"}, Config: "multi-shared-spatial"}}},
		{Cells: []CellSpec{{Tenants: []string{"bfs", "atax"}, Config: "baseline"}}},
		{Cells: []CellSpec{{Bench: "bfs", Config: "multi-shared-spatial"}}},
	}
	for i, b := range bad {
		if err := b.Normalize(); err == nil {
			t.Errorf("bad multi spec %d accepted", i)
		}
	}
}

func TestRunCellMultiMatchesCoRun(t *testing.T) {
	// The daemon's multi cells must reproduce exactly what the in-process
	// interference grid computes for the same point.
	cell := CellSpec{
		Tenants: []string{"bfs", "atax"},
		Config:  "multi-dynamic-spatial",
		Scale:   0.1,
		Seed:    1,
	}
	got, err := RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.BaselineConfig()
	p := workloads.DefaultParams()
	p.Scale, p.Seed = 0.1, 1
	want, err := multi.CoRun(cell.Tenants, multi.Options{
		Base:     &cfg,
		Params:   p,
		SMPolicy: sched.AssignSpatial,
		TLBMode:  multi.TLBDynamicMode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(want.Cycles) != got.Cycles || !reflect.DeepEqual(want.Tenants, got.Tenants) {
		t.Errorf("RunCell diverged from CoRun:\n cell:  %+v\n corun: %d %+v", got, want.Cycles, want.Tenants)
	}
	if len(got.Tenants) != 2 {
		t.Fatalf("cell result has %d tenants", len(got.Tenants))
	}

	if _, err := RunCell(CellSpec{Tenants: []string{"bfs", "atax"}, Config: "baseline", Scale: 0.1, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "multi config") {
		t.Errorf("tenants with a single-kernel config not rejected: %v", err)
	}
}

func TestNormalizeChurnCells(t *testing.T) {
	s := JobSpec{Cells: []CellSpec{{
		Tenants:   []string{"bfs", "atax"},
		Config:    "multi-controller-spatial",
		Scale:     0.1,
		Arrivals:  []ArrivalSpec{{Bench: "mis", At: 1000}, {Bench: "mvt", At: 2000}},
		QueueCap:  2,
		Objective: "maxmin",
	}}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	bad := []JobSpec{
		// Churn fields on a single-kernel cell.
		{Cells: []CellSpec{{Bench: "bfs", Config: "baseline", Arrivals: []ArrivalSpec{{Bench: "mis", At: 10}}}}},
		{Cells: []CellSpec{{Bench: "bfs", Config: "baseline", Objective: "ws"}}},
		// Unknown arrival benchmark, bad cycles, bad queue, bad objective.
		{Cells: []CellSpec{{Tenants: []string{"bfs", "atax"}, Config: "multi-shared-spatial", Arrivals: []ArrivalSpec{{Bench: "nope", At: 10}}}}},
		{Cells: []CellSpec{{Tenants: []string{"bfs", "atax"}, Config: "multi-shared-spatial", Arrivals: []ArrivalSpec{{Bench: "mis", At: 0}}}}},
		{Cells: []CellSpec{{Tenants: []string{"bfs", "atax"}, Config: "multi-shared-spatial", Arrivals: []ArrivalSpec{{Bench: "mis", At: 20}, {Bench: "mvt", At: 10}}}}},
		{Cells: []CellSpec{{Tenants: []string{"bfs", "atax"}, Config: "multi-shared-spatial", QueueCap: -1}}},
		{Cells: []CellSpec{{Tenants: []string{"bfs", "atax"}, Config: "multi-shared-spatial", QueueCap: 1}}},
		{Cells: []CellSpec{{Tenants: []string{"bfs", "atax"}, Config: "multi-controller-spatial", Objective: "nope"}}},
	}
	for i, b := range bad {
		if err := b.Normalize(); err == nil {
			t.Errorf("bad churn spec %d accepted", i)
		}
	}
}

func TestRunCellChurnMatchesCoRun(t *testing.T) {
	// Daemon parity for churn + controller cells: RunCell must reproduce
	// exactly what the in-process churn grid computes for the same point.
	cell := CellSpec{
		Tenants:  []string{"bfs", "atax"},
		Config:   "multi-controller-spatial",
		Scale:    0.1,
		Seed:     1,
		Arrivals: []ArrivalSpec{{Bench: "bfs", At: 3000}, {Bench: "atax", At: 6000}},
		QueueCap: 2,
	}
	got, err := RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.BaselineConfig()
	p := workloads.DefaultParams()
	p.Scale, p.Seed = 0.1, 1
	want, err := multi.CoRun(cell.Tenants, multi.Options{
		Base:     &cfg,
		Params:   p,
		SMPolicy: sched.AssignSpatial,
		TLBMode:  multi.TLBControllerMode,
		Churn: &multi.Churn{QueueCap: 2, Arrivals: []multi.Arrival{
			{Bench: "bfs", At: 3000}, {Bench: "atax", At: 6000},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(want.Cycles) != got.Cycles || !reflect.DeepEqual(want.Tenants, got.Tenants) {
		t.Errorf("churn RunCell diverged from CoRun:\n cell:  %+v\n corun: %d %+v", got, want.Cycles, want.Tenants)
	}
	if len(got.Tenants) != 4 {
		t.Fatalf("churn cell result has %d tenants", len(got.Tenants))
	}
}
