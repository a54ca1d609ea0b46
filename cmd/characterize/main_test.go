package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"gputlb/internal/fabric"
)

// runMainEnv makes the test binary act as the characterize command: the
// tests re-execute it with this variable set, so every run parses its own
// flags and exits exactly as the installed command would.
const runMainEnv = "GPUTLB_CHARACTERIZE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// characterize runs the command with args and returns its stdout and stderr.
func characterize(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// mustCharacterize runs the command and fails the test unless it succeeds.
func mustCharacterize(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, err := characterize(t, args...)
	if err != nil {
		t.Fatalf("characterize %s: %v\n%s", strings.Join(args, " "), err, stderr)
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

var parityArgs = []string{"-bench", "atax,bfs", "-scale", "0.05"}

// TestDaemonParity: Figure 2 renders the same bytes, as a table and as
// -json rows, whether its cells run in-process or on a gputlbd.
func TestDaemonParity(t *testing.T) {
	_, url := startDaemon(t)
	for _, format := range []string{"table", "json"} {
		args := append([]string{"-fig", "2"}, parityArgs...)
		if format == "json" {
			args = append(args, "-json")
		}
		want := mustCharacterize(t, args...)
		got := mustCharacterize(t, append(args, "-daemon", url)...)
		if got != want {
			t.Errorf("-fig 2 (%s): daemon output differs from in-process\n--- in-process\n%s\n--- daemon\n%s", format, want, got)
		}
	}
}

// TestDaemonRunsAnalysesLocally: with -daemon the default -fig all sends
// Figure 2 to the daemon and runs Table II and Figures 3-6 locally,
// rendering what an in-process run renders; -stats-out, whose stats trees
// never come back over the wire, is refused before anything is submitted.
func TestDaemonRunsAnalysesLocally(t *testing.T) {
	m, url := startDaemon(t)
	want := mustCharacterize(t, parityArgs...)
	got := mustCharacterize(t, append(parityArgs, "-daemon", url)...)
	if got != want {
		t.Errorf("-fig all: daemon output differs from in-process\n--- in-process\n%s\n--- daemon\n%s", want, got)
	}
	jobsBefore := len(m.Jobs())
	_, stderr, err := characterize(t, append(parityArgs, "-daemon", url, "-stats-out", t.TempDir()+"/s.json")...)
	if err == nil || !strings.Contains(stderr, "-stats-out") {
		t.Errorf("-stats-out with -daemon: err %v, stderr %q; want a failure naming the flag", err, stderr)
	}
	if n := len(m.Jobs()); n != jobsBefore {
		t.Errorf("refused run submitted %d jobs", n-jobsBefore)
	}
}
