package jobs

import (
	"reflect"
	"strings"
	"testing"
)

func TestNormalizeExpandsGrid(t *testing.T) {
	s := JobSpec{
		Benchmarks: []string{"atax", "mvt"},
		Configs:    []string{"baseline", "sched"},
		Scale:      0.1,
		Seed:       7,
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := []CellSpec{
		{Bench: "atax", Config: "baseline", Scale: 0.1, Seed: 7},
		{Bench: "atax", Config: "sched", Scale: 0.1, Seed: 7},
		{Bench: "mvt", Config: "baseline", Scale: 0.1, Seed: 7},
		{Bench: "mvt", Config: "sched", Scale: 0.1, Seed: 7},
	}
	if len(s.Cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(s.Cells), len(want))
	}
	for i, c := range s.Cells {
		if !reflect.DeepEqual(c, want[i]) {
			t.Errorf("cell %d = %+v, want %+v", i, c, want[i])
		}
	}
	if s.Benchmarks != nil || s.Configs != nil {
		t.Errorf("grid fields should be cleared after expansion")
	}
	// Idempotent: normalizing again must not change the cells.
	before := append([]CellSpec(nil), s.Cells...)
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if !reflect.DeepEqual(s.Cells[i], before[i]) {
			t.Fatalf("Normalize not idempotent at cell %d", i)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	s := JobSpec{Cells: []CellSpec{{Bench: "atax", Config: "baseline"}}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got := s.Cells[0]; got.Scale != 1.0 || got.Seed != 1 {
		t.Errorf("defaults not applied: %+v", got)
	}

	// Empty benchmark list expands to the full suite.
	full := JobSpec{Configs: []string{"baseline"}}
	if err := full.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(full.Cells) != 10 {
		t.Errorf("full-suite expansion produced %d cells, want 10", len(full.Cells))
	}
}

func TestNormalizeRejectsUnknownNames(t *testing.T) {
	bad := JobSpec{Benchmarks: []string{"nope"}, Configs: []string{"baseline"}}
	if err := bad.Normalize(); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("unknown benchmark not rejected: %v", err)
	}
	bad = JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"warpdrive"}}
	if err := bad.Normalize(); err == nil || !strings.Contains(err.Error(), "unknown config") {
		t.Errorf("unknown config not rejected: %v", err)
	}
	bad = JobSpec{Benchmarks: []string{"atax"}}
	if err := bad.Normalize(); err == nil {
		t.Error("spec without configs or cells not rejected")
	}
}
