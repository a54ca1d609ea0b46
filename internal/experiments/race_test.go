package experiments

import (
	"bytes"
	"sync"
	"testing"

	"gputlb/internal/stats"
	"gputlb/internal/workloads"
)

// TestConcurrentSweepsIsolated runs several full parallel sweeps at once,
// each with its own stats dump but all sharing one tracer (the supported
// sharing mode). Every cell builds its own simulator and registry, so under
// `go test -race` this fails if any registry, counter, or histogram state
// leaks across cells or sweeps; without -race it still checks that the
// concurrent dumps are byte-identical to each other.
func TestConcurrentSweepsIsolated(t *testing.T) {
	const sweeps = 3
	tracer := stats.NewTracer(1 << 10)

	runSweep := func() ([]byte, error) {
		dump := &StatsDump{}
		opt := Options{
			Params:      workloads.Params{PageShift: 12, Seed: 1, Scale: 0.1},
			Benchmarks:  []string{"bfs", "atax"},
			Parallelism: 4,
			StatsDump:   dump,
			Tracer:      tracer,
		}
		if _, err := opt.grid("race", "baseline"); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := dump.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}

	outs := make([][]byte, sweeps)
	errs := make([]error, sweeps)
	var wg sync.WaitGroup
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = runSweep()
		}(i)
	}
	wg.Wait()

	for i := 0; i < sweeps; i++ {
		if errs[i] != nil {
			t.Fatalf("sweep %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], outs[0]) {
			t.Errorf("sweep %d produced a different stats dump than sweep 0 (first difference at byte %d)",
				i, firstDiff(outs[i], outs[0]))
		}
	}
}
