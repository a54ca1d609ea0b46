package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gputlb/internal/jobs"
)

// runMainEnv makes the test binary act as the gputlbd command: the tests
// re-execute it with this variable set, so every run parses its own flags,
// handles signals and exits exactly as the installed command would.
const runMainEnv = "GPUTLB_GPUTLBD_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syncBuffer is a bytes.Buffer safe to read while the child writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemon is one gputlbd process started by a test.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	log  *syncBuffer
	done chan struct{} // closed once the process has exited
	err  error         // its exit status, valid after done
}

// startGputlbd runs gputlbd on a free loopback port over journal dir and
// waits until it answers /healthz.
func startGputlbd(t *testing.T, dir string, args ...string) *daemon {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", addr, "-journal-dir", dir}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	d := &daemon{cmd: cmd, url: "http://" + addr, log: &syncBuffer{}, done: make(chan struct{})}
	cmd.Stdout, cmd.Stderr = d.log, d.log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		select {
		case <-d.done:
		default:
			cmd.Process.Kill()
			<-d.done
		}
	})
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get(d.url + "/healthz"); err == nil {
			resp.Body.Close()
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("gputlbd %v not ready:\n%s", args, d.log)
		}
	}
}

// terminate sends SIGTERM and requires a clean exit.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		if d.err != nil {
			t.Fatalf("gputlbd exited with %v after SIGTERM:\n%s", d.err, d.log)
		}
	case <-time.After(time.Minute):
		t.Fatalf("gputlbd did not exit after SIGTERM:\n%s", d.log)
	}
}

// inProcessResult is the byte-identity reference: the job's cells run
// with jobs.RunCell in this process, encoded by jobs.EncodeResult.
func inProcessResult(t *testing.T, spec jobs.JobSpec) []byte {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	res := jobs.Result{Name: spec.Name, Spec: spec, Cells: make([]jobs.CellResult, len(spec.Cells))}
	for i, cell := range spec.Cells {
		r, err := jobs.RunCell(cell)
		if err != nil {
			t.Fatal(err)
		}
		res.Cells[i] = r
	}
	out, err := jobs.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDefaultModeResumesAfterSIGTERM drives the default mode as a real
// process: a job is interrupted by SIGTERM mid-sweep, a new process on the
// same journal directory resumes it, and the result bytes equal an
// in-process run's.
func TestDefaultModeResumesAfterSIGTERM(t *testing.T) {
	spec := jobs.JobSpec{
		Name:       "sigterm",
		Benchmarks: []string{"atax", "bicg"},
		Configs:    []string{"baseline", "sched"},
		Scale:      0.1,
	}
	want := inProcessResult(t, spec)
	dir := t.TempDir()

	// One runner, and the third cell's first attempt fails into an
	// hour-long backoff: the job holds at two journaled cells until
	// SIGTERM cancels that retry, which leaves no journal record.
	d1 := startGputlbd(t, dir, "-parallel", "1", "-inject-fail-every", "3", "-retry-backoff", "1h")
	cl1 := &jobs.Client{BaseURL: d1.url}
	id, err := cl1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(10 * time.Millisecond) {
		st, err := cl1.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.CellsDone == 2 {
			break
		}
		if st.State == jobs.StateDone || time.Now().After(deadline) {
			t.Fatalf("job never held at two cells: %+v\n%s", st, d1.log)
		}
	}
	d1.terminate(t)
	if !strings.Contains(d1.log.String(), "drained cleanly") {
		t.Errorf("first run did not drain cleanly:\n%s", d1.log)
	}

	d2 := startGputlbd(t, dir, "-parallel", "2")
	cl2 := &jobs.Client{BaseURL: d2.url}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := cl2.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("resumed job ended %s: %s", st.State, st.Error)
	}
	got, err := cl2.RawResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed result differs from the in-process result")
	}
	resp, err := http.Get(d2.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "gputlbd/jobs/cells_recovered 2\n") {
		t.Errorf("/metrics does not show the two recovered cells:\n%s", metrics)
	}
	d2.terminate(t)
}
