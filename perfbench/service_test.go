package main

import (
	"reflect"
	"testing"
)

func TestPlanJobsSameSeedSameList(t *testing.T) {
	a, b := planJobs(7, serviceRounds), planJobs(7, serviceRounds)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different job lists")
	}
}

// TestPlanJobsFreshCellsPerSeed checks a new seed simulates cells no
// earlier seed did, so no run can read another run's results.
func TestPlanJobsFreshCellsPerSeed(t *testing.T) {
	seen := map[int64]int64{}
	for seed := int64(1); seed <= 20; seed++ {
		for _, p := range planJobs(seed, serviceRounds) {
			if other, ok := seen[p.Spec.Seed]; ok && other != seed {
				t.Fatalf("seeds %d and %d share cell seed %d", other, seed, p.Spec.Seed)
			}
			seen[p.Spec.Seed] = seed
			if p.Spec.Seed <= 0 {
				t.Fatalf("cell seed %d is not positive", p.Spec.Seed)
			}
		}
	}
}

// TestPlanJobsRepeats checks repeats resubmit an earlier fresh spec of the
// same benchmark verbatim, and that every seed plans the same mix: each
// benchmark serviceRounds times, serviceRepeats of them repeats.
func TestPlanJobsRepeats(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		plan := planJobs(seed, serviceRounds)
		perBench := map[string]int{}
		repeats := map[string]int{}
		for i, p := range plan {
			b := p.Spec.Benchmarks[0]
			perBench[b]++
			if p.First == i {
				continue
			}
			repeats[b]++
			if p.First > i || plan[p.First].First != p.First {
				t.Fatalf("seed %d: job %d repeats %d, which is not an earlier fresh job", seed, i, p.First)
			}
			if !reflect.DeepEqual(p.Spec, plan[p.First].Spec) {
				t.Fatalf("seed %d: job %d differs from the job %d it repeats", seed, i, p.First)
			}
		}
		if len(perBench) != 10 {
			t.Fatalf("seed %d: %d benchmarks planned, want 10", seed, len(perBench))
		}
		for b, n := range perBench {
			if n != serviceRounds || repeats[b] != serviceRepeats {
				t.Errorf("seed %d: %s has %d jobs and %d repeats, want %d and %d", seed, b, n, repeats[b], serviceRounds, serviceRepeats)
			}
		}
	}
	plan := planJobs(1, serviceRounds)
	if cells := plan[0].cellSpecs(); len(cells) != len(serviceConfigs) || cells[0].Seed != plan[0].Spec.Seed {
		t.Errorf("cellSpecs = %+v", cells)
	}
}

func TestParseMetrics(t *testing.T) {
	text := "gputlbd/jobs/cells_retried 3\ngputlbd/jobs/cells_failed 0\n\ngputlbd/result_cache/entries 12.5\n"
	got, err := parseMetrics(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"gputlbd/jobs/cells_retried":   3,
		"gputlbd/jobs/cells_failed":    0,
		"gputlbd/result_cache/entries": 12.5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseMetrics = %v, want %v", got, want)
	}
	for _, bad := range []string{"no-value-here\n", "gputlbd/jobs/x notanumber\n"} {
		if _, err := parseMetrics(bad); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
}
