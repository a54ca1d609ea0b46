// Quickstart: run one benchmark under the baseline and under the paper's
// full proposal (TLB-aware scheduling + TB-id partitioning + dynamic set
// sharing) and compare L1 TLB hit rates and execution time.
package main

import (
	"fmt"
	"log"

	"gputlb"
)

func main() {
	log.SetFlags(0)

	params := gputlb.DefaultParams() // experiment scale, seed 1, 4KB pages

	// Machines are built by name, with the names every figure, gputlbd job
	// and gputlbsim run takes (gputlb.ConfigNames lists them).
	var res [2]gputlb.Result
	for i, name := range []string{"baseline", "sched+part+share"} {
		cfg, err := gputlb.NamedConfig(name)
		if err != nil {
			log.Fatal(err)
		}
		if res[i], err = gputlb.Simulate("mvt", params, cfg); err != nil {
			log.Fatal(err)
		}
	}
	baseline, proposal := res[0], res[1]

	fmt.Println("mvt (matrix-vector product and transpose, PolyBench)")
	fmt.Printf("  baseline:  L1 TLB hit %5.1f%%, %9d cycles\n",
		100*baseline.L1TLBHitRate, baseline.Cycles)
	fmt.Printf("  proposal:  L1 TLB hit %5.1f%%, %9d cycles\n",
		100*proposal.L1TLBHitRate, proposal.Cycles)
	fmt.Printf("  speedup:   %.2fx\n", float64(baseline.Cycles)/float64(proposal.Cycles))
}
