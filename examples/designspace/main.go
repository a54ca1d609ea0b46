// Design-space exploration: sweep the per-SM L1 TLB capacity against the
// baseline and the paper's full proposal. The interesting question for an
// architect: how many extra TLB entries is the proposal worth? (The paper's
// answer: scheduling + partitioning + sharing captures much of what a
// hardware capacity bump would, without the area and latency cost.)
package main

import (
	"fmt"
	"log"

	"gputlb"
)

func main() {
	log.SetFlags(0)

	params := gputlb.DefaultParams()
	benches := []string{"mvt", "bfs", "nw"}
	sizes := []int{32, 64, 128, 256}

	for _, bench := range benches {
		fmt.Printf("%s: execution cycles by L1 TLB capacity\n", bench)
		fmt.Printf("  %-10s %12s %12s %10s\n", "entries", "baseline", "proposal", "speedup")
		for _, entries := range sizes {
			var cycles [2]int64
			for i, name := range []string{"baseline", "sched+part+share"} {
				cfg, err := gputlb.NamedConfig(name)
				if err != nil {
					log.Fatal(err)
				}
				cfg.L1TLB.Entries = entries
				r, err := gputlb.Simulate(bench, params, cfg)
				if err != nil {
					log.Fatal(err)
				}
				cycles[i] = int64(r.Cycles)
			}
			fmt.Printf("  %-10d %12d %12d %9.2fx\n",
				entries, cycles[0], cycles[1], float64(cycles[0])/float64(cycles[1]))
		}
		fmt.Println()
	}
}
