package simtest

import (
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/engine"
	"gputlb/internal/sim"
)

// serialResult runs b on the serial engine and returns just the Result.
func serialResult(t *testing.T, b Build) sim.Result {
	t.Helper()
	r, _, err := RunSerial(b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// shardedResult runs b on the sharded engine and returns just the Result.
func shardedResult(t *testing.T, b Build, slices int, epoch engine.Cycle) sim.Result {
	t.Helper()
	r, _, _, err := Run(b, slices, epoch, false)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// histQuantile returns the upper bound of the power-of-two bucket holding
// the q-quantile of the translation-latency histogram.
func histQuantile(h [16]int64, q float64) int64 {
	var total int64
	for _, n := range h {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	var seen int64
	for i, n := range h {
		seen += n
		if seen > target {
			return 1 << uint(i+1)
		}
	}
	return 1 << 16
}

// TestModelInvariantsAcrossEngines: quantities fixed by the workload — not
// by request ordering — agree between the serial engine and the sharded
// engine at every epoch length. Retired instructions, coalesced page/line
// requests, first-touch faults, and TB placement totals are all
// metamorphic invariants of the engine split.
func TestModelInvariantsAcrossEngines(t *testing.T) {
	b := soloBuild(t, "bfs", func(*arch.Config) {})
	serial := serialResult(t, b)

	for _, epoch := range []engine.Cycle{0, 1, 7, 40} {
		r := shardedResult(t, b, 1, epoch)
		if r.InstsIssued != serial.InstsIssued {
			t.Errorf("epoch=%d: InstsIssued %d != serial %d", epoch, r.InstsIssued, serial.InstsIssued)
		}
		if r.PageRequests != serial.PageRequests {
			t.Errorf("epoch=%d: PageRequests %d != serial %d", epoch, r.PageRequests, serial.PageRequests)
		}
		if r.LineRequests != serial.LineRequests {
			t.Errorf("epoch=%d: LineRequests %d != serial %d", epoch, r.LineRequests, serial.LineRequests)
		}
		if r.Faults != serial.Faults {
			t.Errorf("epoch=%d: Faults %d != serial %d", epoch, r.Faults, serial.Faults)
		}
		var tbs, serialTBs int
		for _, n := range r.TBsPerSM {
			tbs += n
		}
		for _, n := range serial.TBsPerSM {
			serialTBs += n
		}
		if tbs != serialTBs {
			t.Errorf("epoch=%d: TBs %d != serial %d", epoch, tbs, serialTBs)
		}
	}
}

// TestCounterSumsBalance: within any single run, per-component counters
// must balance — every page request is an L1 TLB access, every translation
// lands in exactly one histogram bucket, and L1 TLB misses bound walks from
// above.
func TestCounterSumsBalance(t *testing.T) {
	b := soloBuild(t, "bfs", func(*arch.Config) {})
	for _, e := range []struct {
		name string
		r    sim.Result
	}{
		{"serial", serialResult(t, b)},
		{"sharded", shardedResult(t, b, 1, 0)},
		{"sliced", shardedResult(t, b, 4, 0)},
	} {
		r := e.r
		if got := r.L1TLBAccesses(); got != r.PageRequests {
			t.Errorf("%s: L1 TLB accesses %d != page requests %d", e.name, got, r.PageRequests)
		}
		var hist int64
		for _, n := range r.TranslationLatency {
			hist += n
		}
		if hist != r.PageRequests {
			t.Errorf("%s: histogram count %d != page requests %d", e.name, hist, r.PageRequests)
		}
		misses := r.PageRequests - r.L1TLBHits()
		if r.Walks > misses {
			t.Errorf("%s: walks %d exceed L1 TLB misses %d", e.name, r.Walks, misses)
		}
		if r.Walks < r.Faults {
			t.Errorf("%s: walks %d below faults %d", e.name, r.Walks, r.Faults)
		}
	}
}

// TestHistogramQuantilesInvariant: the translation-latency distribution's
// quantiles are identical at every epoch length — a coarser, more
// interpretable restatement of byte-identity that would survive a registry
// format change.
func TestHistogramQuantilesInvariant(t *testing.T) {
	b := soloBuild(t, "bfs", func(*arch.Config) {})
	want := shardedResult(t, b, 1, 0)
	for _, epoch := range []engine.Cycle{5, 17} {
		r := shardedResult(t, b, 1, epoch)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if got, w := histQuantile(r.TranslationLatency, q), histQuantile(want.TranslationLatency, q); got != w {
				t.Errorf("epoch=%d: p%.0f = %d, want %d", epoch, q*100, got, w)
			}
		}
	}
}
