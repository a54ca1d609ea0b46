package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gputlb/internal/fabric"
)

// runMainEnv makes the test binary act as the evaluate command: the tests
// re-execute it with this variable set, so every run parses its own flags
// and exits exactly as the installed command would.
const runMainEnv = "GPUTLB_EVALUATE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// evaluate runs the command with args and returns its stdout and stderr.
func evaluate(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// mustEvaluate runs the command and fails the test unless it succeeds.
func mustEvaluate(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, err := evaluate(t, args...)
	if err != nil {
		t.Fatalf("evaluate %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return out
}

// startDaemon serves a fresh gputlbd in its default mode — a fabric
// coordinator with one in-process worker — on a loopback server.
func startDaemon(t *testing.T) (*fabric.Coordinator, string) {
	t.Helper()
	c, err := fabric.NewCoordinator(fabric.CoordinatorOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c.AddLocalWorker(fabric.WorkerOptions{Parallelism: 2})
	c.Start()
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		c.Drain(ctx)
	})
	return c, srv.URL
}

// startFabric serves a fabric coordinator with one worker on loopback
// servers and returns the coordinator's URL.
func startFabric(t *testing.T) string {
	t.Helper()
	c, err := fabric.NewCoordinator(fabric.CoordinatorOptions{Dir: t.TempDir(), TickEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	csrv := httptest.NewServer(c.Handler())
	var handler atomic.Value
	wsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	w := fabric.NewWorker(fabric.WorkerOptions{
		CoordinatorURL: csrv.URL,
		AdvertiseURL:   wsrv.URL,
		Parallelism:    2,
	})
	handler.Store(w.Handler())
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Close()
		wsrv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		c.Drain(ctx)
		csrv.Close()
	})
	return csrv.URL
}

// parityArgs keeps every figure to seconds while still giving the co-run
// studies one benchmark pair.
var parityArgs = []string{"-bench", "atax,bfs", "-scale", "0.05"}

// checkParity renders -fig fig in-process and through the daemon at url,
// as tables and as -json rows, and requires byte-identical stdout.
func checkParity(t *testing.T, url, fig string) {
	t.Helper()
	for _, format := range []string{"table", "json"} {
		args := append([]string{"-fig", fig}, parityArgs...)
		if format == "json" {
			args = append(args, "-json")
		}
		want := mustEvaluate(t, args...)
		got := mustEvaluate(t, append(args, "-daemon", url)...)
		if got != want {
			t.Errorf("-fig %s (%s): daemon output differs from in-process\n--- in-process\n%s\n--- daemon\n%s", fig, format, want, got)
		}
	}
}

// TestDaemonParity: every study that runs on a gputlbd — Figures 10, 11
// and 12 and the huge-page study (-fig all), Figure 2, the co-run grid,
// the churn grid, the mechanism study with its co-run table, and the
// design-space ablations — renders the same bytes whether its cells run
// in-process or on the daemon.
func TestDaemonParity(t *testing.T) {
	_, url := startDaemon(t)
	for _, fig := range []string{"all", "2", "multi", "churn", "mech", "ablations"} {
		t.Run(fig, func(t *testing.T) { checkParity(t, url, fig) })
	}
}

// TestCoordinatorParity: the same holds through a fabric coordinator, whose
// cells run on a remote worker.
func TestCoordinatorParity(t *testing.T) {
	checkParity(t, startFabric(t), "mech")
}

// TestDaemonRunsSeedsAndWarp: the seed sweep sends its cells to the daemon
// and the warp-reuse analysis, which simulates nothing, runs locally; both
// render what an in-process run renders.
func TestDaemonRunsSeedsAndWarp(t *testing.T) {
	_, url := startDaemon(t)
	for _, fig := range []string{"seeds", "warp"} {
		args := append([]string{"-fig", fig}, parityArgs...)
		want := mustEvaluate(t, args...)
		got := mustEvaluate(t, append(args, "-daemon", url)...)
		if got != want {
			t.Errorf("-fig %s: daemon output differs from in-process\n--- in-process\n%s\n--- daemon\n%s", fig, want, got)
		}
	}
}

// TestDaemonRunsAnalysesLocally: with -daemon the characterization sends
// Figure 2 to the daemon and runs Table II and Figures 3-6 locally,
// rendering what an in-process run renders.
func TestDaemonRunsAnalysesLocally(t *testing.T) {
	_, url := startDaemon(t)
	args := append([]string{"-fig", "table2,2,3,4,5,6"}, parityArgs...)
	want := mustEvaluate(t, args...)
	got := mustEvaluate(t, append(args, "-daemon", url)...)
	if got != want {
		t.Errorf("-fig table2,2,3,4,5,6: daemon output differs from in-process\n--- in-process\n%s\n--- daemon\n%s", want, got)
	}
}

// TestDaemonRejectsLocalOnlyRuns: outputs that exist only in-process, the
// SM balance study, whose per-SM counters a daemon cell does not carry, and
// the in-process sharded engine fail with -daemon before any job is
// submitted, naming the reason.
func TestDaemonRejectsLocalOnlyRuns(t *testing.T) {
	m, url := startDaemon(t)
	dir := t.TempDir()
	cases := map[string][]string{
		"-stats-out":     {"-fig", "11", "-stats-out", dir + "/s.json"},
		"-trace-out":     {"-fig", "11", "-trace-out", dir + "/t.json"},
		"balance":        {"-fig", "balance"},
		"-cell-parallel": {"-fig", "11", "-cell-parallel", "2"},
	}
	for reason, args := range cases {
		_, stderr, err := evaluate(t, append(append(args, parityArgs...), "-daemon", url)...)
		if err == nil {
			t.Errorf("%v with -daemon succeeded", args)
		} else if !strings.Contains(stderr, reason) {
			t.Errorf("%v with -daemon: error does not name %s: %s", args, reason, stderr)
		}
	}
	if n := len(m.Jobs()); n != 0 {
		t.Errorf("rejected runs submitted %d jobs", n)
	}
}

// TestUnknownStudyRejected: a -fig list naming an unknown study exits 2
// before running anything, listing the valid names.
func TestUnknownStudyRejected(t *testing.T) {
	for _, fig := range []string{"bogus", "7", "10,bogus", ""} {
		out, stderr, err := evaluate(t, "-fig", fig, "-bench", "atax", "-scale", "0.05")
		if code := exitCode(err); code != 2 {
			t.Errorf("-fig %q: exit %d, want 2", fig, code)
		}
		if out != "" {
			t.Errorf("-fig %q printed %q", fig, out)
		}
		if !strings.Contains(stderr, "table3, table2, 2, 3, 4, 5, 6, 10") || !strings.Contains(stderr, "ablations") {
			t.Errorf("-fig %q: stderr does not list the studies: %s", fig, stderr)
		}
	}
}

// TestUnknownObjectiveRejected: an -objective that names no controller
// objective exits 2 before running anything, whether or not a selected
// study runs controller cells.
func TestUnknownObjectiveRejected(t *testing.T) {
	for _, fig := range []string{"11", "churn"} {
		out, stderr, err := evaluate(t, "-fig", fig, "-bench", "atax", "-scale", "0.05", "-objective", "bogus")
		if code := exitCode(err); code != 2 {
			t.Errorf("-fig %s -objective bogus: exit %d, want 2", fig, code)
		}
		if out != "" {
			t.Errorf("-fig %s -objective bogus printed %q", fig, out)
		}
		if !strings.Contains(stderr, `unknown objective "bogus"`) {
			t.Errorf("-fig %s -objective bogus: stderr does not name the objective: %s", fig, stderr)
		}
	}
}

// exitCode is a finished command's exit status (0 on success).
func exitCode(err error) int {
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	if err != nil {
		return -1
	}
	return 0
}

// TestJSONCoversEveryStudy: -json turns every table into rows, the
// ablations, balance and warp studies included: stdout is a stream of
// one-key JSON objects, one per table, and no rendered table.
func TestJSONCoversEveryStudy(t *testing.T) {
	out := mustEvaluate(t, append([]string{"-fig", "table3,ablations,balance,warp", "-json"}, parityArgs...)...)
	var keys []string
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		var obj map[string]json.RawMessage
		if err := dec.Decode(&obj); err != nil {
			t.Fatalf("stdout is not a JSON stream: %v\n%s", err, out)
		}
		for k := range obj {
			keys = append(keys, k)
		}
	}
	want := []string{"table3", "ablation-sharing", "ablation-throttle", "ablation-warpsched",
		"ablation-pwc", "ablation-replacement", "balance", "warp"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Errorf("-json keys = %v, want %v", keys, want)
	}
}
