package experiments

import (
	"fmt"

	"gputlb/internal/metrics"
	"gputlb/internal/multi"
	"gputlb/internal/sched"
	"gputlb/internal/sim"
)

// --------------------------------------------------- multi-tenant co-run grid

// MultiTLBModes is the L2 TLB tenancy axis of the co-run grid.
var MultiTLBModes = []multi.TLBMode{multi.TLBSharedMode, multi.TLBStaticMode, multi.TLBDynamicMode, multi.TLBControllerMode}

// MultiSMPolicies is the SM assignment axis of the co-run grid.
var MultiSMPolicies = []sched.SMAssignment{sched.AssignSpatial, sched.AssignInterleaved, sched.AssignShared}

// MultiPairs returns the unordered benchmark pairs of the co-run grid, in
// input order: (0,1), (0,2), ..., (1,2), ...
func MultiPairs(benches []string) [][2]string {
	var pairs [][2]string
	for i := 0; i < len(benches); i++ {
		for j := i + 1; j < len(benches); j++ {
			pairs = append(pairs, [2]string{benches[i], benches[j]})
		}
	}
	return pairs
}

// MultiRow is one co-run cell: a workload pair under one (L2 TLB mode, SM
// assignment) point, with the solo references the weighted speedup divides
// by.
type MultiRow struct {
	Benches  [2]string
	TLBMode  string
	SMPolicy string
	// Tenants holds the per-tenant co-run results, in Benches order.
	Tenants []sim.TenantResult
	// SoloIPC is each tenant's IPC running alone on the whole GPU under the
	// same base configuration.
	SoloIPC [2]float64
	// WeightedSpeedup is sum_i IPC_i^co-run / IPC_i^solo; 2.0 would mean
	// zero interference for a pair.
	WeightedSpeedup float64
}

// MultiGrid runs the interference study: every benchmark pair under the
// full {TLB mode} x {SM assignment} grid, plus one solo reference run per
// benchmark. Cells run through the same bounded pool as the single-kernel
// sweeps and results are bit-identical at any parallelism level.
func MultiGrid(opt Options) ([]MultiRow, error) {
	benches, pairs, err := opt.pairs("co-run grid")
	if err != nil {
		return nil, err
	}
	// Solo references first, then the co-run cells: pair-major, then TLB
	// mode, then SM policy.
	var cells []CellSpec
	for _, b := range benches {
		cells = append(cells, opt.cell(b, "baseline"))
	}
	for _, p := range pairs {
		for _, mode := range MultiTLBModes {
			for _, pol := range MultiSMPolicies {
				cells = append(cells, opt.coRunCell(p, mode, pol))
			}
		}
	}
	res, err := opt.execute("multi", cells)
	if err != nil {
		return nil, err
	}
	solo := soloIPCs(res[:len(benches)])
	rows := make([]MultiRow, 0, len(cells)-len(benches))
	for i, c := range cells[len(benches):] {
		cell := res[len(benches)+i]
		mode, pol, _ := ParseMultiConfig(c.Config)
		ipc, ws := weighted(cell, solo)
		row := MultiRow{
			Benches:         [2]string{c.Tenants[0], c.Tenants[1]},
			TLBMode:         mode.String(),
			SMPolicy:        pol.String(),
			Tenants:         cell.Tenants,
			WeightedSpeedup: ws,
		}
		copy(row.SoloIPC[:], ipc)
		rows = append(rows, row)
	}
	return rows, nil
}

// stallFractions renders a tenant's translation-stall breakdown as
// "l1/l2/walk/fault" percentages of its total translation-stall cycles.
func stallFractions(t sim.TenantResult) string {
	total := t.StallTotal()
	if total == 0 {
		return "-"
	}
	pct := func(v int64) float64 { return float64(v) / float64(total) }
	return fmt.Sprintf("%.0f/%.0f/%.0f/%.0f%%",
		100*pct(t.StallL1), 100*pct(t.StallL2), 100*pct(t.StallWalk), 100*pct(t.StallFault))
}

// RenderMulti formats the co-run grid: per-tenant IPC against the solo
// reference, the weighted speedup, and each tenant's translation-stall
// breakdown (share of stall cycles resolved at L1/L2/walk/fault).
func RenderMulti(rows []MultiRow) string {
	t := metrics.NewTable("Pair", "L2 TLB", "SMs",
		"IPC A (solo)", "IPC B (solo)", "WS", "Stall A l1/l2/walk/fault", "Stall B")
	byMode := map[string][]float64{}
	for _, r := range rows {
		var a, b sim.TenantResult
		if len(r.Tenants) == 2 {
			a, b = r.Tenants[0], r.Tenants[1]
		}
		t.AddRow(
			r.Benches[0]+"+"+r.Benches[1], r.TLBMode, r.SMPolicy,
			fmt.Sprintf("%.3f (%.3f)", a.IPC(), r.SoloIPC[0]),
			fmt.Sprintf("%.3f (%.3f)", b.IPC(), r.SoloIPC[1]),
			fmt.Sprintf("%.3f", r.WeightedSpeedup),
			stallFractions(a), stallFractions(b))
		byMode[r.TLBMode] = append(byMode[r.TLBMode], r.WeightedSpeedup)
	}
	return "Multi-tenant co-runs — weighted speedup (WS, 2.0 = no interference) per pair x L2 TLB mode x SM assignment\n" + t.String() +
		"\nWeighted-speedup geomean by L2 TLB mode (tenant-aware partitioning vs fully shared)\n" +
		geomeanTable("L2 TLB mode", "Geomean WS", MultiTLBModes, byMode)
}

// geomeanTable renders, for each key (printed with %v) that by holds, the
// geomean of its values, in keys order.
func geomeanTable[K any](keyHeader, valueHeader string, keys []K, by map[string][]float64) string {
	t := metrics.NewTable(keyHeader, valueHeader)
	for _, k := range keys {
		if xs, ok := by[fmt.Sprint(k)]; ok {
			t.AddRow(fmt.Sprint(k), fmtGeomean(xs))
		}
	}
	return t.String()
}
