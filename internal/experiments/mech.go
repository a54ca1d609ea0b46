package experiments

import (
	"fmt"

	"gputlb/internal/arch"
	"gputlb/internal/metrics"
	"gputlb/internal/multi"
	"gputlb/internal/sched"
	"gputlb/internal/sim"
	"gputlb/internal/tlbmech"
)

// ------------------------------------------- translation-mechanism evaluation

// MechNames is the mechanism axis of the evaluation, in render order.
func MechNames() []string { return tlbmech.Known() }

// MechConfig returns the baseline configuration running the named
// translation mechanism. largereach is paired with the contiguity-preserving
// allocator it is designed for — reach beyond one page only exists when the
// allocator actually provides contiguous frames.
func MechConfig(name string) arch.Config {
	c := BaselineConfig()
	c.TLBMech = name
	if name == "largereach" {
		c.AllocMode = "contig"
	}
	return c
}

// MechRow is one solo cell of the mechanism evaluation.
type MechRow struct {
	Bench string
	Mech  string
	// NormTime is execution time normalized to mech=base on the same
	// benchmark (lower is better; 1.0 = baseline).
	NormTime float64
	L1Hit    float64
	L2Hit    float64
	Cycles   int64
}

// MechEval runs every benchmark solo under each translation mechanism and
// normalizes execution time to the base mechanism.
func MechEval(opt Options) ([]MechRow, error) {
	cells, err := opt.mechSoloCells()
	if err != nil {
		return nil, err
	}
	res, err := opt.execute("mech", cells)
	if err != nil {
		return nil, err
	}
	mechs := MechNames()
	n := len(mechs)
	rows := make([]MechRow, len(cells))
	for i, r := range res {
		base := res[i-i%n] // mechanism-minor; mechs[0] is "base"
		norm := 0.0
		if base.Cycles > 0 {
			norm = float64(r.Cycles) / float64(base.Cycles)
		}
		rows[i] = MechRow{
			Bench: r.Bench, Mech: mechs[i%n], NormTime: norm,
			L1Hit: r.L1TLBHitRate, L2Hit: r.L2TLBHitRate,
			Cycles: r.Cycles,
		}
	}
	return rows, nil
}

// withMech runs cell c under the named translation mechanism, with the
// frame allocator MechConfig pairs it with.
func withMech(c CellSpec, mech string) CellSpec {
	c.Mech, c.Alloc = mech, MechConfig(mech).AllocMode
	return c
}

// mechSoloCells is every benchmark's baseline cell under each mechanism,
// benchmark-major.
func (o Options) mechSoloCells() ([]CellSpec, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	var cells []CellSpec
	for _, s := range specs {
		for _, m := range MechNames() {
			cells = append(cells, withMech(o.cell(s.Name, "baseline"), m))
		}
	}
	return cells, nil
}

// RenderMechEval formats the solo mechanism table plus the normalized-time
// geomean per mechanism.
func RenderMechEval(rows []MechRow) string {
	t := metrics.NewTable("Benchmark", "Mechanism", "Norm. time", "L1 hit", "L2 hit", "Cycles")
	byMech := map[string][]float64{}
	for _, r := range rows {
		t.AddRow(r.Bench, r.Mech, fmt.Sprintf("%.3f", r.NormTime),
			metrics.Pct(r.L1Hit), metrics.Pct(r.L2Hit), fmt.Sprint(r.Cycles))
		byMech[r.Mech] = append(byMech[r.Mech], r.NormTime)
	}
	s := "Translation mechanisms — solo execution time normalized to mech=base (lower is better)\n" + t.String()
	g := metrics.NewTable("Mechanism", "Geomean norm. time")
	for _, m := range MechNames() {
		if xs, ok := byMech[m]; ok {
			g.AddRow(m, fmtGeomean(xs))
		}
	}
	return s + "\nNormalized-time geomean by mechanism\n" + g.String()
}

// MechMultiRow is one co-run cell of the mechanism evaluation: a benchmark
// pair on a fully shared L2 TLB under one mechanism, with weighted speedup
// against same-mechanism solo references (so WS isolates the interference
// behaviour of the mechanism, not its solo speedup).
type MechMultiRow struct {
	Benches         [2]string
	Mech            string
	Tenants         []sim.TenantResult
	SoloIPC         [2]float64
	WeightedSpeedup float64
}

// MechMulti runs every benchmark pair under each mechanism on a fully
// shared L2 TLB — the capacity-contention regime sub-entry sharing targets.
func MechMulti(opt Options) ([]MechMultiRow, error) {
	_, pairs, err := opt.pairs("mechanism co-run grid")
	if err != nil {
		return nil, err
	}
	// Same-mechanism solo references, then pair-major, mechanism-minor
	// co-runs at the spatial SM split.
	cells, err := opt.mechSoloCells()
	if err != nil {
		return nil, err
	}
	nSolo := len(cells)
	for _, p := range pairs {
		for _, m := range MechNames() {
			cells = append(cells, withMech(opt.coRunCell(p, multi.TLBSharedMode, sched.AssignSpatial), m))
		}
	}
	res, err := opt.execute("mech-multi", cells)
	if err != nil {
		return nil, err
	}
	// Both blocks are mechanism-minor; Validate canonicalized the cells'
	// "base" to empty, so the axis names each cell's mechanism.
	mechs := MechNames()
	solo := map[string]map[string]float64{} // mechanism -> benchmark -> IPC
	for i, r := range res[:nSolo] {
		m := mechs[i%len(mechs)]
		if solo[m] == nil {
			solo[m] = map[string]float64{}
		}
		solo[m][r.Bench] = r.soloIPC()
	}
	rows := make([]MechMultiRow, 0, len(cells)-nSolo)
	for i, c := range cells[nSolo:] {
		cell := res[nSolo+i]
		m := mechs[i%len(mechs)]
		ipc, ws := weighted(cell, solo[m])
		row := MechMultiRow{
			Benches: [2]string{c.Tenants[0], c.Tenants[1]}, Mech: m,
			Tenants:         cell.Tenants,
			WeightedSpeedup: ws,
		}
		copy(row.SoloIPC[:], ipc)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderMechMulti formats the co-run mechanism table plus the weighted-
// speedup geomean per mechanism.
func RenderMechMulti(rows []MechMultiRow) string {
	t := metrics.NewTable("Pair", "Mechanism", "IPC A (solo)", "IPC B (solo)", "WS")
	byMech := map[string][]float64{}
	for _, r := range rows {
		var a, b sim.TenantResult
		if len(r.Tenants) == 2 {
			a, b = r.Tenants[0], r.Tenants[1]
		}
		t.AddRow(r.Benches[0]+"+"+r.Benches[1], r.Mech,
			fmt.Sprintf("%.3f (%.3f)", a.IPC(), r.SoloIPC[0]),
			fmt.Sprintf("%.3f (%.3f)", b.IPC(), r.SoloIPC[1]),
			fmt.Sprintf("%.3f", r.WeightedSpeedup))
		byMech[r.Mech] = append(byMech[r.Mech], r.WeightedSpeedup)
	}
	s := "Translation mechanisms — co-runs on a fully shared L2 TLB (WS vs same-mechanism solo, 2.0 = no interference)\n" + t.String()
	g := metrics.NewTable("Mechanism", "Geomean WS")
	for _, m := range MechNames() {
		if ws, ok := byMech[m]; ok {
			g.AddRow(m, fmtGeomean(ws))
		}
	}
	return s + "\nWeighted-speedup geomean by mechanism\n" + g.String()
}
