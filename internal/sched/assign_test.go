package sched

import (
	"reflect"
	"testing"
)

func TestAssignSpatialBlocks(t *testing.T) {
	got := AssignSMs(AssignSpatial, 16, 2)
	want := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{8, 9, 10, 11, 12, 13, 14, 15},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spatial 16/2 = %v, want %v", got, want)
	}
	// Uneven split still covers every SM exactly once.
	got = AssignSMs(AssignSpatial, 16, 3)
	seen := map[int]int{}
	total := 0
	for _, ids := range got {
		total += len(ids)
		for _, sm := range ids {
			seen[sm]++
		}
	}
	if total != 16 || len(seen) != 16 {
		t.Errorf("spatial 16/3 not a partition: %v", got)
	}
}

func TestAssignInterleavedStripes(t *testing.T) {
	got := AssignSMs(AssignInterleaved, 8, 3)
	want := [][]int{{0, 3, 6}, {1, 4, 7}, {2, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("interleaved 8/3 = %v, want %v", got, want)
	}
}

func TestAssignSharedGivesEveryoneEverything(t *testing.T) {
	got := AssignSMs(AssignShared, 4, 3)
	want := []int{0, 1, 2, 3}
	for i, ids := range got {
		if !reflect.DeepEqual(ids, want) {
			t.Errorf("shared tenant %d = %v, want %v", i, ids, want)
		}
	}
	// The lists must be independent copies, not an aliased slice.
	got[0][0] = 99
	if got[1][0] == 99 {
		t.Error("shared assignment aliases one slice across tenants")
	}
}

func TestAssignSMsPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero tenants", func() { AssignSMs(AssignSpatial, 16, 0) })
	mustPanic("more tenants than SMs", func() { AssignSMs(AssignSpatial, 2, 3) })
	// Shared has no disjointness constraint.
	if got := AssignSMs(AssignShared, 2, 3); len(got) != 3 {
		t.Errorf("shared 2/3 = %d tenants, want 3", len(got))
	}
}

// TestSMAssignmentStrings pins the assignment names: they are the <sm>
// part of the co-run config names ("multi-<tlb>-<sm>") jobs carry.
func TestSMAssignmentStrings(t *testing.T) {
	for a, want := range map[SMAssignment]string{
		AssignSpatial: "spatial", AssignInterleaved: "interleaved", AssignShared: "shared", 7: "SMAssignment(7)",
	} {
		if got := a.String(); got != want {
			t.Errorf("SMAssignment %d = %q, want %q", int(a), got, want)
		}
	}
}
