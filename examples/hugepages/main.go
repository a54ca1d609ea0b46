// Huge pages: the paper's Section V large-page study. 2MB pages multiply
// the TLB reach and lift hit rates on their own; the proposal can still be
// layered on top, where its remaining benefit is small — exactly the
// paper's observation that the techniques compose but the saving shrinks.
package main

import (
	"fmt"
	"log"

	"gputlb"
)

func main() {
	log.SetFlags(0)

	rows, err := gputlb.HugePages(gputlb.DefaultExperimentOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(gputlb.RenderHugePages(rows))

	// Dig into one benchmark: show how 2MB pages change the translation
	// traffic itself. The workload's page size follows the machine's.
	fmt.Println("gemm translation traffic:")
	for _, config := range []string{"baseline", "baseline-2M"} {
		cfg, err := gputlb.NamedConfig(config)
		if err != nil {
			log.Fatal(err)
		}
		p := gputlb.DefaultParams()
		p.PageShift = cfg.PageShift()
		r, err := gputlb.Simulate("gemm", p, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %7d translation requests, %5d walks, %4d UVM faults\n",
			config+":", r.PageRequests, r.Walks, r.Faults)
	}
}
