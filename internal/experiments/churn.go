package experiments

import (
	"fmt"

	"gputlb/internal/metrics"
	"gputlb/internal/sched"
	"gputlb/internal/sim"
)

// ------------------------------------------------------- tenant churn grid

// Fixed churn pattern of the grid: each pair's own benchmarks re-arrive
// mid-run, so every cell sees two departures-then-admissions plus the final
// drain where only the controller can reclaim the freed resources. The
// cycles sit inside the co-run of every Table II pair at the grid's default
// scale; arrivals landing after a cell finishes simply never run, which
// keeps the pattern valid (if pointless) at any scale.
const (
	// ChurnQueueCap bounds each cell's admission queue.
	ChurnQueueCap = 2
	// ChurnFirstArrival and ChurnSecondArrival are the fixed arrival cycles.
	ChurnFirstArrival  = 3000
	ChurnSecondArrival = 6000
)

// ChurnRow is one churn cell: a workload pair under one L2 TLB tenancy mode
// with the grid's fixed mid-run arrival pattern, spatial SM split.
type ChurnRow struct {
	Benches [2]string
	TLBMode string
	// Tenants holds all tenant results — the two initial tenants, then the
	// arrivals in arrival order (shed arrivals included, zero-valued).
	Tenants []sim.TenantResult
	// SoloIPC is each tenant's solo IPC, aligned with Tenants.
	SoloIPC []float64
	// WeightedSpeedup is sum_i IPC_i^co-run / IPC_i^solo over the tenants
	// that ran, each scored over its own elapsed cycles.
	WeightedSpeedup float64
	// Shed counts arrivals dropped on admission-queue overflow.
	Shed int
}

// ChurnGrid runs the tenant-churn study: every benchmark pair under the full
// L2 TLB tenancy axis (shared, static, dynamic, controller) with the fixed
// mid-run arrival pattern, spatial SM split. The controller cells are where
// online repartitioning can pay off: departures free SMs and L2 TLB sets
// that the static modes leave idle. Deterministic at any parallelism level.
func ChurnGrid(opt Options) ([]ChurnRow, error) {
	benches, pairs, err := opt.pairs("churn grid")
	if err != nil {
		return nil, err
	}
	// Solo references: one baseline run per benchmark, shared by initial
	// tenants and arrivals of the same benchmark. Then pair-major, TLB mode
	// minor, each cell with the fixed arrival pattern.
	var cells []CellSpec
	for _, b := range benches {
		cells = append(cells, opt.cell(b, "baseline"))
	}
	for _, p := range pairs {
		for _, mode := range MultiTLBModes {
			c := opt.coRunCell(p, mode, sched.AssignSpatial)
			c.QueueCap = ChurnQueueCap
			c.Arrivals = []ArrivalSpec{
				{Bench: p[0], At: ChurnFirstArrival},
				{Bench: p[1], At: ChurnSecondArrival},
			}
			cells = append(cells, c)
		}
	}
	res, err := opt.execute("churn", cells)
	if err != nil {
		return nil, err
	}
	solo := soloIPCs(res[:len(benches)])
	rows := make([]ChurnRow, 0, len(cells)-len(benches))
	for i, c := range cells[len(benches):] {
		cell := res[len(benches)+i]
		mode, _, _ := ParseMultiConfig(c.Config)
		ipc, ws := weighted(cell, solo)
		shed := 0
		for _, tn := range cell.Tenants {
			if tn.Shed {
				shed++
			}
		}
		rows = append(rows, ChurnRow{
			Benches:         [2]string{c.Tenants[0], c.Tenants[1]},
			TLBMode:         mode.String(),
			Tenants:         cell.Tenants,
			SoloIPC:         ipc,
			WeightedSpeedup: ws,
			Shed:            shed,
		})
	}
	return rows, nil
}

// RenderChurn formats the churn grid: per-cell weighted speedup over every
// tenant that ran (initial pair plus mid-run arrivals), then the geomean by
// L2 TLB tenancy mode — the online controller against the static policies.
func RenderChurn(rows []ChurnRow) string {
	t := metrics.NewTable("Pair", "L2 TLB", "Tenants ran", "Shed", "WS")
	byMode := map[string][]float64{}
	for _, r := range rows {
		ran := 0
		for _, tn := range r.Tenants {
			if !tn.Shed {
				ran++
			}
		}
		t.AddRow(
			r.Benches[0]+"+"+r.Benches[1], r.TLBMode,
			fmt.Sprintf("%d", ran), fmt.Sprintf("%d", r.Shed),
			fmt.Sprintf("%.3f", r.WeightedSpeedup))
		byMode[r.TLBMode] = append(byMode[r.TLBMode], r.WeightedSpeedup)
	}
	s := "Tenant churn — weighted speedup per pair x L2 TLB tenancy mode (spatial SMs, arrivals at " +
		fmt.Sprintf("%d and %d", ChurnFirstArrival, ChurnSecondArrival) + ")\n" + t.String()
	g := metrics.NewTable("L2 TLB mode", "Geomean WS")
	for _, mode := range MultiTLBModes {
		if ws, ok := byMode[mode.String()]; ok {
			g.AddRow(mode.String(), fmtGeomean(ws))
		}
	}
	return s + "\nWeighted-speedup geomean by mode (online controller vs static tenancy)\n" + g.String()
}
