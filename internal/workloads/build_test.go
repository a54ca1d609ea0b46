package workloads

import "testing"

// BenchmarkBuild times one uncached build of each benchmark at experiment
// scale, with allocations reported.
func BenchmarkBuild(b *testing.B) {
	for _, s := range All() {
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Build(DefaultParams())
			}
		})
	}
}

// TestBuildAllocsPerMemInst guards the builders' allocation diet: building
// the scale-0.05 suite may allocate at most one object per eight memory
// instructions. One heap slice per instruction's lanes, or a map per graph
// node, fails it.
func TestBuildAllocsPerMemInst(t *testing.T) {
	p := Params{PageShift: 12, Seed: 1, Scale: 0.05}
	memInsts := 0
	for _, s := range All() {
		k, _ := s.Build(p)
		memInsts += k.MemInsts()
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, s := range All() {
			s.Build(p)
		}
	})
	if limit := float64(memInsts) / 8; allocs > limit {
		t.Errorf("suite build allocates %.0f objects for %d memory instructions; limit %.0f (1 per 8)",
			allocs, memInsts, limit)
	}
	t.Logf("%.0f allocs for %d memory instructions (%.3f per instruction)", allocs, memInsts, allocs/float64(memInsts))
}
