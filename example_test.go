package gputlb_test

import (
	"fmt"

	"gputlb"
)

// ExampleSimulate runs one benchmark under the paper's full proposal.
func ExampleSimulate() {
	p := gputlb.DefaultParams()
	p.Scale = 0.2 // small for the example; experiments use 1.0
	cfg, err := gputlb.NamedConfig("sched+part+share")
	if err != nil {
		panic(err)
	}
	res, err := gputlb.Simulate("gemm", p, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Cycles > 0, res.L1TLBAccesses() > 0)
	// Output: true true
}

// ExampleIntraTBReuse reproduces one bar of the paper's Figure 4
// characterization for a single benchmark.
func ExampleIntraTBReuse() {
	p := gputlb.DefaultParams()
	p.Scale = 0.2
	k, _, err := gputlb.Build("bfs", p)
	if err != nil {
		panic(err)
	}
	bins := gputlb.IntraTBReuse(k, 12)
	fmt.Printf("most TBs reuse >80%% of their translations: %v\n", bins[4] > 0.5)
	// Output: most TBs reuse >80% of their translations: true
}

// ExampleEval regenerates the Figure 10/11 evaluation for a benchmark
// subset.
func ExampleEval() {
	opt := gputlb.DefaultExperimentOptions()
	opt.Params.Scale = 0.2
	opt.Benchmarks = []string{"mvt"}
	rows, err := gputlb.Eval(opt)
	if err != nil {
		panic(err)
	}
	r := rows[0]
	fmt.Println(r.Bench, r.CyclesBase > 0 && r.NormShare() > 0)
	// Output: mvt true
}
