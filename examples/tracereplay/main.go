// Trace replay: export a benchmark's kernel to the compact binary trace
// format, read it back, and replay it under a custom machine configuration
// (here: a double-size L1 TLB with a page-walk cache) — the workflow for
// archiving runs or bringing externally captured traces into the simulator.
package main

import (
	"bytes"
	"fmt"
	"log"

	"gputlb"
)

func main() {
	log.SetFlags(0)

	params := gputlb.DefaultParams()
	params.Scale = 0.5
	k, _, err := gputlb.Build("bicg", params)
	if err != nil {
		log.Fatal(err)
	}

	// Export and re-import (stand-in for writing a .trace file).
	var buf bytes.Buffer
	if err := gputlb.WriteKernelTrace(&buf, k); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %q: %d TBs, %d mem insts -> %d bytes (%.1f bits/lane-address)\n",
		k.Name, len(k.TBs), k.MemInsts(), buf.Len(),
		8*float64(buf.Len())/float64(k.MemInsts()*32))

	loaded, err := gputlb.ReadKernelTrace(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// Replay under a customized machine.
	cfg, err := gputlb.NamedConfig("sched+part+share")
	if err != nil {
		log.Fatal(err)
	}
	cfg.L1TLB.Entries = 128
	cfg.PWCEntries = 64
	res, err := gputlb.Run(cfg, loaded, gputlb.NewAddressSpace(12, 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed under 128-entry L1 + PWC: hit %.1f%%, %d cycles, %d walks (%d PWC-shortened)\n",
		100*res.L1TLBHitRate, res.Cycles, res.Walks, res.PWCHits)
}
