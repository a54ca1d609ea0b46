package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// The fabric's clock: the coordinator's lease timeout is the one timing
// an operator sets, and the heartbeat period, steal age and scheduler
// tick follow from it.

func TestDefaultLeaseSetsTheClock(t *testing.T) {
	o := CoordinatorOptions{}.withDefaults()
	if o.LeaseTimeout != 10*time.Second {
		t.Fatalf("default lease = %v, want 10s", o.LeaseTimeout)
	}
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"heartbeat", o.heartbeatEvery(), time.Second},
		{"steal age", o.stealAfter(), 2 * time.Second},
		{"tick", o.tickEvery(), 100 * time.Millisecond},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestTooShortLeaseFails(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorOptions{Dir: t.TempDir(), LeaseTimeout: 99}); err == nil {
		t.Error("a 99ns lease, whose tick rounds to zero, was accepted")
	}
}

func TestRegisterAssignsHeartbeat(t *testing.T) {
	for _, lease := range []time.Duration{0, time.Second, 30 * time.Second} {
		_, srv := startCoordinator(t, CoordinatorOptions{Dir: t.TempDir(), LeaseTimeout: lease})
		resp, err := http.Post(srv.URL+"/workers", "application/json", strings.NewReader(`{"url":"http://127.0.0.1:1","parallelism":1}`))
		if err != nil {
			t.Fatal(err)
		}
		var rr RegisterResponse
		err = json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := lease / 10
		if lease == 0 {
			want = time.Second
		}
		if rr.Heartbeat != want {
			t.Errorf("lease %v: registration assigned heartbeat %v, want %v", lease, rr.Heartbeat, want)
		}
	}
}

// TestWorkerHeartbeatsAtCoordinatorPeriod joins a worker that names no
// period to a coordinator with a 1 s lease: it must heartbeat every
// 100 ms, not at any period of its own.
func TestWorkerHeartbeatsAtCoordinatorPeriod(t *testing.T) {
	c, err := NewCoordinator(CoordinatorOptions{Dir: t.TempDir(), LeaseTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	var mu sync.Mutex
	var beats []time.Time
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/heartbeat") {
			mu.Lock()
			beats = append(beats, time.Now())
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Drain(ctx)
		srv.Close()
	})
	w := NewWorker(WorkerOptions{CoordinatorURL: srv.URL, AdvertiseURL: "http://127.0.0.1:1", Parallelism: 1})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const want = 6
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(beats)
		got := append([]time.Time(nil), beats...)
		mu.Unlock()
		if n >= want {
			// A ticker drops ticks rather than bunching them, so a loaded
			// host can only stretch the mean interval, never shrink it.
			mean := got[want-1].Sub(got[0]) / (want - 1)
			if mean < 50*time.Millisecond || mean > 400*time.Millisecond {
				t.Fatalf("mean heartbeat interval %v, want about 100ms", mean)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d heartbeats in 5s, want %d at a 100ms period", n, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJoinRefusesMissingHeartbeat: a registration response without a
// positive period fails the join instead of leaving the worker silent.
func TestJoinRefusesMissingHeartbeat(t *testing.T) {
	for _, body := range []string{`{"id":"w-0001"}`, `{"id":"w-0001","heartbeat_ns":-5}`} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(body))
		}))
		w := NewWorker(WorkerOptions{CoordinatorURL: srv.URL, AdvertiseURL: "http://127.0.0.1:1", Parallelism: 1})
		err := w.Start()
		srv.Close()
		if err == nil {
			w.Close()
			t.Errorf("join succeeded on registration response %s", body)
		} else if !strings.Contains(err.Error(), "heartbeat") {
			t.Errorf("join error %q does not name the heartbeat period", err)
		}
	}
}
