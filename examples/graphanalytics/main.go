// Graph analytics under UVM: the paper's motivating scenario. Runs the four
// irregular graph benchmarks (bfs, color, mis, pagerank — the Rodinia and
// Pannotia kernels on a synthetic citation graph), characterizes their
// translation reuse the way the paper's Section III does, and shows how
// thread-block scheduling and TLB management interact with their L1 TLB
// behaviour.
package main

import (
	"fmt"
	"log"

	"gputlb"
)

func main() {
	log.SetFlags(0)

	params := gputlb.DefaultParams()
	graphs := []string{"bfs", "color", "mis", "pagerank"}
	var designs []gputlb.Config
	for _, name := range []string{"baseline", "sched+part", "sched+part+share"} {
		cfg, err := gputlb.NamedConfig(name)
		if err != nil {
			log.Fatal(err)
		}
		designs = append(designs, cfg)
	}

	fmt.Println("Translation reuse characterization (paper Section III):")
	fmt.Printf("%-10s %28s %28s\n", "", "intra-TB reuse in b4+b5", "TB pairs with <20% overlap")
	for _, name := range graphs {
		k, _, err := gputlb.Build(name, params)
		if err != nil {
			log.Fatal(err)
		}
		intra := gputlb.IntraTBReuse(k, 12)
		inter := gputlb.InterTBReuse(k, 12, 256)
		fmt.Printf("%-10s %27.1f%% %27.1f%%\n",
			name, 100*(intra[3]+intra[4]), 100*inter[0])
	}
	fmt.Println()

	fmt.Println("Reuse distances (fraction of intra-TB reuses within the 64-entry L1 reach):")
	fmt.Printf("%-10s %16s %18s\n", "", "one TB at a time", "concurrent TBs")
	for _, name := range graphs {
		k, _, err := gputlb.Build(name, params)
		if err != nil {
			log.Fatal(err)
		}
		iso := gputlb.IsolatedReuseDistance(k, 12)
		base := designs[0]
		inter := gputlb.InterleavedReuseDistance(k, 12, base.NumSMs, k.ConcurrentTBsPerSM(base))
		fmt.Printf("%-10s %15.1f%% %17.1f%%\n",
			name, 100*iso.FractionWithin(6), 100*inter.FractionWithin(6))
	}
	fmt.Println()

	fmt.Println("End-to-end under the three designs:")
	fmt.Printf("%-10s %20s %20s %20s\n", "", "baseline hit/cycles", "partitioned", "partitioned+shared")
	for _, name := range graphs {
		var cells []string
		for _, cfg := range designs {
			r, err := gputlb.Simulate(name, params, cfg)
			if err != nil {
				log.Fatal(err)
			}
			cells = append(cells, fmt.Sprintf("%5.1f%% / %9d", 100*r.L1TLBHitRate, r.Cycles))
		}
		fmt.Printf("%-10s %20s %20s %20s\n", name, cells[0], cells[1], cells[2])
	}
}
