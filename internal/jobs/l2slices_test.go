package jobs

import (
	"reflect"
	"strings"
	"testing"
)

// TestRunCellL2SlicesParity: a daemon cell run on the sharded engine with
// the address-sliced barrier must produce one well-defined result —
// identical at every worker count for a fixed slice count — for both
// single-kernel and multi-tenant cells, so checkpoint/resume stays sound
// when a job is resumed on a machine with a different core count.
func TestRunCellL2SlicesParity(t *testing.T) {
	cells := []CellSpec{
		{Bench: "bfs", Config: "baseline", Scale: 0.1, Seed: 1, L2Slices: 4},
		{Tenants: []string{"bfs", "atax"}, Config: "multi-dynamic-spatial", Scale: 0.1, Seed: 1, L2Slices: 4},
	}
	for _, cell := range cells {
		base := cell
		base.CellParallel = 2
		want, err := RunCell(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{3, 8} {
			c := cell
			c.CellParallel = n
			got, err := RunCell(c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s [%s] l2-slices 4: cell result differs between cell-parallel 2 and %d:\n  2: %+v\n  %d: %+v",
					base.Bench, base.Config, n, want, n, got)
			}
		}
	}
}

// TestNormalizeL2Slices: the grid-level L2Slices fans out to every expanded
// cell and the grid field is cleared, keeping Normalize idempotent.
func TestNormalizeL2Slices(t *testing.T) {
	spec := JobSpec{Benchmarks: []string{"bfs"}, Configs: []string{"baseline"}, CellParallel: 4, L2Slices: 4}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if spec.L2Slices != 0 {
		t.Errorf("grid L2Slices not cleared: %d", spec.L2Slices)
	}
	if len(spec.Cells) != 1 || spec.Cells[0].L2Slices != 4 {
		t.Errorf("cell did not inherit L2Slices: %+v", spec.Cells)
	}
}

// TestNormalizeL2SlicesRequiresSharded: slicing is a property of the
// sharded barrier, so a sliced cell on the serial engine is a spec error —
// the submitter must pick the engine explicitly rather than silently get
// serial-engine numbers under a sliced label.
func TestNormalizeL2SlicesRequiresSharded(t *testing.T) {
	spec := JobSpec{Benchmarks: []string{"bfs"}, Configs: []string{"baseline"}, L2Slices: 4}
	err := spec.Normalize()
	if err == nil {
		t.Fatal("Normalize accepted l2_slices 4 with cell_parallel < 2")
	}
	if !strings.Contains(err.Error(), "l2_slices") {
		t.Errorf("error does not name l2_slices: %v", err)
	}
}
