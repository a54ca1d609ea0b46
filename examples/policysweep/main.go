// Policy sweep: the full Figure 10/11 evaluation over all ten Table II
// benchmarks — baseline, TLB-aware scheduling, scheduling+partitioning, and
// the complete proposal — printed as the paper's two figures, plus the
// sharing-mode ablation on a benchmark subset.
package main

import (
	"fmt"
	"log"

	"gputlb"
)

func main() {
	log.SetFlags(0)

	opt := gputlb.DefaultExperimentOptions()
	rows, err := gputlb.Eval(opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(gputlb.RenderFig10(rows))
	fmt.Println(gputlb.RenderFig11(rows))

	// Sharing design space on the benchmarks that stress it most.
	opt.Benchmarks = []string{"atax", "bfs", "gemm"}
	ab, err := gputlb.AblationSharing(opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(gputlb.RenderAblation(
		"Sharing ablation — counter thresholds and all-to-all vs the 1-bit adjacent flag\n"+
			"(times normalized to the 1-bit adjacent design)", ab))
}
