package sched

import "fmt"

// SMAssignment selects how a multi-tenant run divides the GPU's SMs among
// co-running tenants. It is orthogonal to the per-tenant TB scheduling
// policy, which picks among the SMs an assignment grants a tenant.
type SMAssignment int

const (
	// AssignSpatial gives each tenant a contiguous block of SMs: tenant i of
	// t gets SMs [i*n/t, (i+1)*n/t). Compute is fully isolated; only the
	// memory system (L2 TLB, walkers, NoC, DRAM) is shared.
	AssignSpatial SMAssignment = iota
	// AssignInterleaved stripes SMs across tenants: SM j goes to tenant
	// j mod t. The split is as even as spatial but neighbouring SMs serve
	// different tenants, which matters to NoC locality.
	AssignInterleaved
	// AssignShared gives every tenant every SM; tenants compete for TB
	// slots on each SM and their warps time-share the issue stages.
	AssignShared
)

// String implements fmt.Stringer.
func (a SMAssignment) String() string {
	switch a {
	case AssignSpatial:
		return "spatial"
	case AssignInterleaved:
		return "interleaved"
	case AssignShared:
		return "shared"
	default:
		return fmt.Sprintf("SMAssignment(%d)", int(a))
	}
}

// AssignSMs partitions numSMs SMs among tenants under the given assignment,
// returning one sorted SM-id list per tenant. Spatial and interleaved
// assignments are disjoint and cover every SM (so no SM idles); shared
// returns the full range for every tenant. It panics when tenants < 1 or a
// disjoint assignment has more tenants than SMs.
func AssignSMs(a SMAssignment, numSMs, tenants int) [][]int {
	if tenants < 1 {
		panic("sched: AssignSMs with no tenants")
	}
	if a != AssignShared && tenants > numSMs {
		panic(fmt.Sprintf("sched: cannot split %d SMs among %d tenants", numSMs, tenants))
	}
	out := make([][]int, tenants)
	switch a {
	case AssignSpatial:
		for i := range out {
			lo, hi := i*numSMs/tenants, (i+1)*numSMs/tenants
			ids := make([]int, 0, hi-lo)
			for sm := lo; sm < hi; sm++ {
				ids = append(ids, sm)
			}
			out[i] = ids
		}
	case AssignInterleaved:
		for i := range out {
			out[i] = make([]int, 0, (numSMs+tenants-1-i)/tenants)
		}
		for sm := 0; sm < numSMs; sm++ {
			t := sm % tenants
			out[t] = append(out[t], sm)
		}
	default: // AssignShared
		all := make([]int, numSMs)
		for sm := range all {
			all[sm] = sm
		}
		for i := range out {
			ids := make([]int, numSMs)
			copy(ids, all)
			out[i] = ids
		}
	}
	return out
}
