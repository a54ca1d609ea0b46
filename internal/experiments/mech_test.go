package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestMechNamesAndConfigs(t *testing.T) {
	names := MechNames()
	if len(names) == 0 || names[0] != "base" {
		t.Fatalf("MechNames() = %v, want base first", names)
	}
	for _, m := range names {
		cfg, err := withMech(CellSpec{Bench: "atax", Config: "baseline"}, m).Machine()
		if err != nil {
			t.Fatalf("mech %s: %v", m, err)
		}
		if cfg.TLBMech != m {
			t.Errorf("mech %s machine runs TLBMech %q", m, cfg.TLBMech)
		}
		wantAlloc := ""
		if m == "largereach" {
			wantAlloc = "contig"
		}
		if cfg.AllocMode != wantAlloc {
			t.Errorf("mech %s machine runs AllocMode %q, want %q", m, cfg.AllocMode, wantAlloc)
		}
	}
}

func TestMechEvalShape(t *testing.T) {
	rows, err := MechEval(multiOpt("bfs", "atax"))
	if err != nil {
		t.Fatal(err)
	}
	mechs := MechNames()
	if want := 2 * len(mechs); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for i, r := range rows {
		if r.Mech != mechs[i%len(mechs)] {
			t.Errorf("row %d mech = %q, want %q", i, r.Mech, mechs[i%len(mechs)])
		}
		if r.Cycles <= 0 || r.NormTime <= 0 {
			t.Errorf("row %d: cycles %d, norm %f", i, r.Cycles, r.NormTime)
		}
		// Each benchmark's base row is its own normalization reference.
		if r.Mech == "base" && r.NormTime != 1 {
			t.Errorf("row %d: base NormTime = %f, want 1", i, r.NormTime)
		}
	}
}

func TestMechEvalDeterministicAcrossParallelism(t *testing.T) {
	r1, err := MechEval(multiOpt("bfs", "atax"))
	if err != nil {
		t.Fatal(err)
	}
	opt := multiOpt("bfs", "atax")
	opt.Parallelism = 1
	r2, err := MechEval(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("MechEval rows differ across parallelism levels")
	}
}

func TestMechMultiShape(t *testing.T) {
	rows, err := MechMulti(multiOpt("bfs", "atax"))
	if err != nil {
		t.Fatal(err)
	}
	mechs := MechNames()
	if len(rows) != len(mechs) {
		t.Fatalf("rows = %d, want %d (one pair x mechanisms)", len(rows), len(mechs))
	}
	for i, r := range rows {
		if r.Benches != [2]string{"bfs", "atax"} || r.Mech != mechs[i] {
			t.Errorf("row %d = %v/%s", i, r.Benches, r.Mech)
		}
		if len(r.Tenants) != 2 || len(r.SoloIPC) != 2 {
			t.Fatalf("row %d has %d tenants, %d solo refs", i, len(r.Tenants), len(r.SoloIPC))
		}
		for j, tn := range r.Tenants {
			if tn.IPC() <= 0 || r.SoloIPC[j] <= 0 {
				t.Errorf("row %d tenant %d: IPC %f, solo %f", i, j, tn.IPC(), r.SoloIPC[j])
			}
		}
		if r.WeightedSpeedup <= 0 {
			t.Errorf("row %d weighted speedup %f", i, r.WeightedSpeedup)
		}
	}
}

// TestSubentryBeatsBaseOnCoRun pins the mechanism study's headline cell:
// under a shared L2 TLB, sub-entry sharing collapses the two tenants'
// duplicate tags into shared frames slots and lifts the bfs+atax co-run's
// weighted speedup above the base mechanism's.
func TestSubentryBeatsBaseOnCoRun(t *testing.T) {
	rows, err := MechMulti(multiOpt("bfs", "atax"))
	if err != nil {
		t.Fatal(err)
	}
	ws := map[string]float64{}
	for _, r := range rows {
		ws[r.Mech] = r.WeightedSpeedup
	}
	if ws["subentry"] <= ws["base"] {
		t.Errorf("subentry WS %.4f not above base %.4f for bfs+atax on a shared L2 TLB",
			ws["subentry"], ws["base"])
	}
}

func TestRenderMech(t *testing.T) {
	rows, err := MechEval(multiOpt("bfs", "atax"))
	if err != nil {
		t.Fatal(err)
	}
	tbl := RenderMechEval(rows)
	for _, want := range append([]string{"bfs", "atax", "geomean"}, MechNames()...) {
		if !strings.Contains(tbl, want) {
			t.Errorf("RenderMechEval output missing %q", want)
		}
	}
	mrows, err := MechMulti(multiOpt("bfs", "atax"))
	if err != nil {
		t.Fatal(err)
	}
	mtbl := RenderMechMulti(mrows)
	for _, want := range append([]string{"bfs+atax", "geomean"}, MechNames()...) {
		if !strings.Contains(mtbl, want) {
			t.Errorf("RenderMechMulti output missing %q", want)
		}
	}
}
