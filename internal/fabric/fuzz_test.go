package fabric

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
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
