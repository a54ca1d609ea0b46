package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"gputlb/internal/jobs"
)

// serve runs one request through h in-process and returns the status
// code. A handler panic is not recovered here, so it fails the fuzz run.
func serve(h http.Handler, method, path string, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code
}

// checkStillServing fails unless the coordinator still answers GET /jobs.
func checkStillServing(t *testing.T, h http.Handler) {
	t.Helper()
	if code := serve(h, http.MethodGet, "/jobs", nil); code != http.StatusOK {
		t.Fatalf("GET /jobs after the request = HTTP %d, want 200", code)
	}
}

// FuzzSubmitHandler posts arbitrary bodies to POST /jobs of a coordinator
// that is never started, so accepted specs are journaled but never
// simulated. No input may panic, every answer is one the API documents,
// and the coordinator keeps serving.
func FuzzSubmitHandler(f *testing.F) {
	c, err := NewCoordinator(CoordinatorOptions{Dir: f.TempDir(), QueueCapacity: 4})
	if err != nil {
		f.Fatal(err)
	}
	h := c.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		switch code := serve(h, http.MethodPost, "/jobs", body); code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST /jobs %q = HTTP %d, want 202, 400, 429 or 503", body, code)
		}
		checkStillServing(t, h)
	})
}

// FuzzResultsHandler posts arbitrary bodies to POST /results of a
// coordinator whose two-cell job job-0001 is active but never dispatched:
// the scheduler is stepped once by hand instead of started. No input may
// panic, every answer is 200, 400 or 500, and the coordinator keeps
// serving.
func FuzzResultsHandler(f *testing.F) {
	// One directory per input under a shared root: per-input t.TempDir
	// cleanup would dominate the run time.
	root := f.TempDir()
	f.Fuzz(func(t *testing.T, body []byte) {
		dir, err := os.MkdirTemp(root, "")
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCoordinator(CoordinatorOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline", "sched"}, Scale: 0.1}); err != nil {
			t.Fatal(err)
		}
		c.step()
		t.Cleanup(func() {
			if c.active != nil {
				c.active.journal.Close()
			}
		})
		h := c.Handler()
		switch code := serve(h, http.MethodPost, "/results", body); code {
		case http.StatusOK, http.StatusBadRequest, http.StatusInternalServerError:
		default:
			t.Fatalf("POST /results %q = HTTP %d, want 200, 400 or 500", body, code)
		}
		checkStillServing(t, h)
	})
}

// FuzzNormalizeCellKey decodes arbitrary bytes as a job spec and
// normalizes it. No input may panic, and a normalized spec must survive a
// JSON round trip (what the journal persists) and a second Normalize with
// every cell's CellKey unchanged: a key that drifts between submission and
// resume would miss the cache, or worse, alias another cell. Spelling out
// the default mechanism ("base"), allocator ("firsttouch") and, on a
// co-run cell, objective ("weighted-speedup", whether the config attaches
// a controller or not) on a normalized cell must not change its key
// either: it is the same cell.
func FuzzNormalizeCellKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec jobs.JobSpec
		if json.Unmarshal(body, &spec) != nil || spec.Normalize() != nil {
			return
		}
		keys := make([]string, len(spec.Cells))
		for i, c := range spec.Cells {
			keys[i] = CellKey(c)
			spelled := c
			if spelled.Mech == "" {
				spelled.Mech = "base"
			}
			if spelled.Alloc == "" {
				spelled.Alloc = "firsttouch"
			}
			if len(spelled.Tenants) > 0 && spelled.Objective == "" {
				spelled.Objective = "weighted-speedup"
			}
			if err := spelled.Validate(); err != nil {
				t.Fatalf("cell %d with explicit defaults: %v", i, err)
			}
			if got := CellKey(spelled); got != keys[i] {
				t.Fatalf("cell %d: key %s with explicit defaults, want %s", i, got, keys[i])
			}
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("normalized spec does not encode: %v", err)
		}
		var again jobs.JobSpec
		if err := json.Unmarshal(data, &again); err != nil {
			t.Fatalf("normalized spec %s does not decode: %v", data, err)
		}
		if err := again.Normalize(); err != nil {
			t.Fatalf("second Normalize of %s: %v", data, err)
		}
		if len(again.Cells) != len(keys) {
			t.Fatalf("second Normalize of %s: %d cells, want %d", data, len(again.Cells), len(keys))
		}
		for i, c := range again.Cells {
			if got := CellKey(c); got != keys[i] {
				t.Fatalf("cell %d of %s: key %s after the second Normalize, want %s", i, data, got, keys[i])
			}
		}
	})
}

// TestDeletedAliasSeedRejected: the FuzzNormalizeCellKey seed naming
// compression — a deleted alias of the baseline on the compressed
// mechanism — decodes but fails Normalize, so the alias cannot come back
// as a second name, and a second cell key, for one machine.
func TestDeletedAliasSeedRejected(t *testing.T) {
	data, err := os.ReadFile("testdata/fuzz/FuzzNormalizeCellKey/deleted-alias-compression")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(data), "[]byte(")
	body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatalf("seed %q: %v", data, err)
	}
	var spec jobs.JobSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatalf("seed body %s does not decode: %v", body, err)
	}
	if err := spec.Normalize(); err == nil || !strings.Contains(err.Error(), `unknown config "compression"`) {
		t.Errorf("Normalize(%s) = %v, want unknown config \"compression\"", body, err)
	}
}
