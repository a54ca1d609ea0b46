package jobs

import (
	"strings"
	"testing"

	"gputlb/internal/experiments"
	"gputlb/internal/sim"
	"gputlb/internal/workloads"
)

// TestNormalizeMechCells: mech/alloc cell fields are validated by
// Normalize and survive it unchanged on both solo and multi cells.
func TestNormalizeMechCells(t *testing.T) {
	s := JobSpec{Cells: []CellSpec{
		{Bench: "bfs", Config: "baseline", Mech: "largereach", Alloc: "contig", Scale: 0.1},
		{Tenants: []string{"bfs", "atax"}, Config: "multi-shared-spatial", Mech: "subentry", Scale: 0.1},
	}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Cells[0].Mech != "largereach" || s.Cells[0].Alloc != "contig" || s.Cells[1].Mech != "subentry" {
		t.Errorf("normalize rewrote mech cells: %+v", s.Cells)
	}

	bad := []JobSpec{
		{Cells: []CellSpec{{Bench: "bfs", Config: "baseline", Mech: "quantum"}}},
		{Cells: []CellSpec{{Bench: "bfs", Config: "baseline", Alloc: "buddy"}}},
	}
	for i, b := range bad {
		if err := b.Normalize(); err == nil {
			t.Errorf("bad mech spec %d accepted", i)
		}
	}
}

// TestRunCellMechMatchesInProcess: a daemon mech cell reproduces exactly
// what an in-process simulator configured with the same mechanism computes
// — the parity the -fig mech daemon path depends on.
func TestRunCellMechMatchesInProcess(t *testing.T) {
	cell := CellSpec{Bench: "bfs", Config: "baseline", Mech: "largereach", Alloc: "contig", Scale: 0.1, Seed: 1}
	got, err := RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}

	spec, _ := workloads.ByName("bfs")
	p := workloads.DefaultParams()
	p.Scale, p.Seed = 0.1, 1
	k, as := workloads.Cached(spec, p)
	cfg := experiments.BaselineConfig()
	cfg.TLBMech = "largereach"
	cfg.AllocMode = "contig"
	s, err := sim.New(cfg, k, as)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Run()
	if got.Cycles != int64(want.Cycles) || got.L2TLBHitRate != want.L2TLB.HitRate() || got.Walks != want.Walks {
		t.Errorf("RunCell diverged from in-process run:\n cell: %+v\n want: cycles=%d l2=%f walks=%d",
			got, want.Cycles, want.L2TLB.HitRate(), want.Walks)
	}

	// The mechanism must actually be in effect: the same cell under base
	// produces a different trajectory.
	base, err := RunCell(CellSpec{Bench: "bfs", Config: "baseline", Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles == got.Cycles && base.L2TLBHitRate == got.L2TLBHitRate {
		t.Error("mech cell is indistinguishable from base — Mech/Alloc not applied")
	}

	// An invalid mechanism surfaces as a cell error, not a silent base run.
	if _, err := RunCell(CellSpec{Bench: "bfs", Config: "baseline", Mech: "quantum", Scale: 0.1, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "mech") {
		t.Errorf("unknown mechanism not rejected at run time: %v", err)
	}
}
