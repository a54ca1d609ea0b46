package main

import (
	"bytes"
	"context"
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
		FlushWait:      10 * time.Millisecond,
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

// TestDaemonParity: every figure that runs on a gputlbd — Figures 10, 11
// and 12 and the huge-page study (-fig all), the co-run grid, the churn
// grid, and the mechanism study with its co-run table — renders the same
// bytes whether its cells run in-process or on the daemon.
func TestDaemonParity(t *testing.T) {
	_, url := startDaemon(t)
	for _, fig := range []string{"all", "multi", "churn", "mech"} {
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

// TestDaemonRejectsLocalOnlyRuns: outputs that exist only in-process, and
// the studies of unnamed configurations, fail with -daemon before any job
// is submitted, naming the reason.
func TestDaemonRejectsLocalOnlyRuns(t *testing.T) {
	m, url := startDaemon(t)
	dir := t.TempDir()
	cases := map[string][]string{
		"-stats-out": {"-fig", "11", "-stats-out", dir + "/s.json"},
		"-trace-out": {"-fig", "11", "-trace-out", dir + "/t.json"},
		"ablations":  {"-fig", "ablations"},
		"balance":    {"-fig", "balance"},
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
