package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gputlb/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden snapshots")

// goldenBenchmarks covers one small benchmark per workload family of Table
// II: graph traversal (bfs), graph iteration (pagerank), linear algebra
// (atax), stencil (3dconv), and dynamic programming (nw).
var goldenBenchmarks = []string{"bfs", "pagerank", "atax", "3dconv", "nw"}

// goldenStatsJSON runs every golden benchmark under the baseline config at
// the given parallelism and returns the serialized stats dump.
func goldenStatsJSON(t *testing.T, parallelism int) []byte {
	return goldenStatsJSONCell(t, parallelism, 1)
}

// goldenStatsJSONCell additionally selects the intra-cell engine.
func goldenStatsJSONCell(t *testing.T, parallelism, cellParallel int) []byte {
	return goldenStatsJSONSliced(t, parallelism, cellParallel, 1)
}

// goldenStatsJSONSliced additionally selects the barrier's address-slice
// count (effective only on the sharded engine).
func goldenStatsJSONSliced(t *testing.T, parallelism, cellParallel, l2Slices int) []byte {
	t.Helper()
	dump := &StatsDump{}
	opt := Options{
		Params:       workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2},
		Benchmarks:   goldenBenchmarks,
		Parallelism:  parallelism,
		CellParallel: cellParallel,
		L2Slices:     l2Slices,
		StatsDump:    dump,
	}
	if _, err := opt.grid("golden", "baseline"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dump.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenStats locks the full stats tree of a deterministic baseline run
// per workload family against testdata/golden_stats.json. Any change to the
// timing model, the workload generators, or the stats registry that shifts a
// single counter shows up here. Refresh intentionally with:
//
//	go test ./internal/experiments -run TestGoldenStats -update
func TestGoldenStats(t *testing.T) {
	checkGolden(t, "golden_stats.json", goldenStatsJSON(t, 1))
}

// checkGolden compares got against testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverged from %s (%d vs %d bytes); first difference at byte %d — "+
			"inspect the diff and rerun with -update if intentional",
			golden, len(got), len(want), firstDiff(got, want))
	}
}

// TestGoldenStatsParallelismInvariant: the golden dump must be byte-identical
// whether the cells ran sequentially or eight at a time.
func TestGoldenStatsParallelismInvariant(t *testing.T) {
	seq := goldenStatsJSON(t, 1)
	par := goldenStatsJSON(t, 8)
	if !bytes.Equal(seq, par) {
		t.Errorf("stats dump differs across parallelism (first difference at byte %d)", firstDiff(seq, par))
	}
}

// TestGoldenStatsCellParallelSharded: the sharded intra-cell engine is its
// own deterministic serialization — bit-identical across worker counts even
// though it (legitimately) differs from the serial goldens.
func TestGoldenStatsCellParallelSharded(t *testing.T) {
	two := goldenStatsJSONCell(t, 1, 2)
	eight := goldenStatsJSONCell(t, 4, 8)
	if !bytes.Equal(two, eight) {
		t.Errorf("sharded stats dump differs across cell-parallel worker counts (first difference at byte %d)", firstDiff(two, eight))
	}
}

// TestGoldenStatsSliced locks the address-sliced barrier's serialization
// (sharded engine, 4 slices) against testdata/golden_stats_sliced.json.
// K > 1 partitions the L2 TLB/cache sets, walker pools and DRAM channels
// per address slice, so its stats legitimately differ from the serial
// goldens — but they are a deterministic model of their own, bit-identical
// at every worker count, and this pin catches unintended shifts in that
// model. Refresh both pins with `make golden`.
func TestGoldenStatsSliced(t *testing.T) {
	got := goldenStatsJSONSliced(t, 1, 2, 4)
	checkGolden(t, "golden_stats_sliced.json", got)
	eight := goldenStatsJSONSliced(t, 4, 8, 4)
	if !bytes.Equal(got, eight) {
		t.Errorf("sliced stats dump differs across cell-parallel worker counts (first difference at byte %d)", firstDiff(got, eight))
	}
}

// fig12Golden is one engine's pinned Figure 12: the rendered table and
// the stats trees of its baseline and sched+part+share cells on the
// compressed mechanism.
type fig12Golden struct {
	Engine string     `json:"engine"`
	Render string     `json:"render"`
	Stats  []StatsRow `json:"stats"`
}

// TestFig12Golden locks Figure 12 — the PACT'20 compression comparator
// alone and under our approach — against testdata/golden_fig12.json, on
// the serial engine and on the sharded engine with four address slices
// (whose barrier resolves placeholder entries inside compressed groups).
// Refresh with `make golden`.
func TestFig12Golden(t *testing.T) {
	engines := []struct {
		name                   string
		cellParallel, l2Slices int
	}{
		{"serial", 1, 1},
		{"sliced", 2, 4},
	}
	var out []fig12Golden
	for _, e := range engines {
		dump := &StatsDump{}
		rows, err := Fig12(Options{
			Params:       workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2},
			Benchmarks:   goldenBenchmarks,
			Parallelism:  2,
			CellParallel: e.cellParallel,
			L2Slices:     e.l2Slices,
			StatsDump:    dump,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fig12Golden{e.name, RenderFig12(rows), dump.Rows()})
	}
	got, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_fig12.json", append(got, '\n'))
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// ablationTitles are the design-space ablations' table titles, as
// evaluate -fig ablations prints them.
var ablationTitles = []string{
	"Ablation — sharing activation: counter thresholds and all-to-all vs the 1-bit adjacent flag",
	"Ablation — TB throttling combined with the proposal (§IV-A extension)",
	"Ablation — warp schedulers under the proposal (vs GTO; 'translation-aware' is the paper's future work)",
	"Ablation — 64-entry page-walk cache (vs the same config without one)",
	"Ablation — TLB replacement policies under the proposal (vs LRU)",
}

// TestAblationGolden locks the five design-space ablations and the SM
// balance study, rendered as evaluate -fig ablations,balance prints them,
// against testdata/golden_ablations.txt. Refresh with `make golden`.
func TestAblationGolden(t *testing.T) {
	opt := Options{
		Params:      workloads.Params{PageShift: 12, Seed: 1, Scale: 0.2},
		Benchmarks:  goldenBenchmarks,
		Parallelism: 2,
	}
	tables, err := Ablations(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, rows := range tables {
		buf.WriteString(RenderAblation(ablationTitles[i], rows) + "\n")
	}
	bal, err := SMBalance(opt)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(RenderSMBalance(bal) + "\n")
	checkGolden(t, "golden_ablations.txt", buf.Bytes())
}
