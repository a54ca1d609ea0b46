package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"gputlb/internal/jobs"
	"gputlb/internal/stats"
)

// Handler returns gputlbd's HTTP API in the default and -coordinator
// modes: the /jobs surface clients (evaluate -daemon, characterize
// -daemon, curl) use, plus the fabric endpoints remote workers use. A
// coordinator with an in-process worker takes no remote workers: its
// POST /workers, heartbeat and POST /results answer 404.
//
//	POST /jobs                  submit a JobSpec; 202 {"id": ...}, 429
//	                            when the queue is full, 503 while draining
//	GET  /jobs                  all job statuses, oldest first
//	GET  /jobs/{id}             one job's status
//	GET  /jobs/{id}/result      the canonical result artifact (exact
//	                            journaled bytes); 409 until the job is done
//	POST /workers               worker registration; returns the worker id
//	POST /workers/{id}/heartbeat liveness refresh; 404 tells the worker to
//	                            re-register
//	GET  /workers               registered workers with lease/progress info
//	POST /results               worker result batches (at-least-once;
//	                            deduplicated), acked only after journaling;
//	                            400 when an outcome names no cell of its
//	                            job or fewer than one attempt
//	GET  /healthz               liveness probe
//	GET  /metrics               coordinator metrics: flat "path value"
//	                            text, or the stats snapshot JSON with
//	                            ?format=json
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", c.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, c.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", c.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", c.handleResult)
	mux.HandleFunc("POST /workers", c.remoteOnly(c.handleRegister))
	mux.HandleFunc("POST /workers/{id}/heartbeat", c.remoteOnly(c.handleHeartbeat))
	mux.HandleFunc("GET /workers", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, c.Workers())
	})
	mux.HandleFunc("POST /results", c.remoteOnly(c.handleResults))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeMetrics(w, r, c.MetricsSnapshot())
	})
	return mux
}

// remoteOnly serves h only while the coordinator has no in-process
// worker, so nothing that reaches a default-mode daemon's port can join
// it or post cell results into its journal and cache.
func (c *Coordinator) remoteOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		local := c.local != nil
		c.mu.Unlock()
		if local {
			writeError(w, http.StatusNotFound, errors.New("fabric: this daemon runs its cells in-process and takes no remote workers"))
			return
		}
		h(w, r)
	}
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	id, err := c.Submit(spec)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	}
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := c.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := c.Job(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	out, err := c.Result(id)
	if errors.Is(err, jobs.ErrNotDone) {
		writeError(w, http.StatusConflict, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding registration: %w", err))
		return
	}
	resp, err := c.registerWorker(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !c.heartbeat(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown worker %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	var batch ResultBatch
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding result batch: %w", err))
		return
	}
	err := c.ingestOutcomes(batch)
	switch {
	case errors.Is(err, errBadBatch):
		writeError(w, http.StatusBadRequest, err)
		return
	case err != nil:
		// Journal write failed: nothing was acknowledged durably; the
		// worker's batcher retries the whole batch.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"acked": len(batch.Outcomes)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeMetrics renders a stats snapshot as flat "path value" text, or as
// the full snapshot JSON with ?format=json — the wire format of every
// gputlbd mode.
func writeMetrics(w http.ResponseWriter, r *http.Request, snap *stats.Snapshot) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	for _, fv := range snap.Flatten("") {
		fmt.Fprintf(&b, "%s %s\n", fv.Path, fv.Value)
	}
	fmt.Fprint(w, b.String())
}
