// Command gputlbd is the sweep daemon. Every mode that owns jobs runs
// one scheduler, the fabric coordinator; the modes differ only in where
// its cells run:
//
//   - default: the coordinator plus one in-process worker — an HTTP
//     service that accepts experiment-grid jobs (benchmark ×
//     configuration cells as JSON), runs their cells on its own bounded
//     pool, and journals every completed cell — by group commit, one
//     fsync for the cells that finished together — so a killed daemon
//     resumes with only the unfinished cells re-run. The content-addressed
//     result cache serves repeated cells. It takes no remote workers:
//     POST /workers, its heartbeat and POST /results answer 404.
//   - -coordinator: the coordinator alone — the same /jobs API, but it
//     executes nothing locally; cells are dispatched in batches to joined
//     workers, with work-stealing from stragglers and re-dispatch of
//     unacknowledged cells when a worker dies.
//   - -worker -join URL: a fabric worker — registers with a
//     coordinator, heartbeats, accepts POST /cells batches, runs them on
//     the same runner pool as the in-process worker, and sends outcomes
//     back by the same group commit: a finished cell goes at once unless
//     a result POST is in flight, then with the others that finished
//     meanwhile.
//
// Result bytes are identical in every mode. Endpoints (default and
// -coordinator): POST /jobs, GET /jobs, GET /jobs/{id},
// GET /jobs/{id}/result, GET /workers, GET /healthz, GET /metrics, and
// in -coordinator mode POST /workers, POST /workers/{id}/heartbeat and
// POST /results. Workers serve
// POST /cells, GET /healthz, GET /metrics. A full queue sheds
// submissions with 429. SIGINT/SIGTERM drain gracefully; restart with
// the same -journal-dir to resume. See OPERATIONS.md for the full API
// reference and runbook.
//
// Examples:
//
//	gputlbd -journal-dir /var/lib/gputlbd
//	gputlbd -coordinator -addr :8372 -journal-dir /var/lib/gputlbd
//	gputlbd -worker -join http://coord:8372 -addr :8380
//	curl -s localhost:8372/jobs -d '{"name":"fig11","configs":["baseline","sched","sched+part","sched+part+share"]}'
//	curl -s localhost:8372/jobs/job-0001/result
//	curl -s localhost:8372/workers
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"gputlb/internal/fabric"
	"gputlb/internal/jobs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gputlbd: ")

	var (
		addr         = flag.String("addr", ":8372", "listen address")
		journalDir   = flag.String("journal-dir", "gputlbd-journal", "directory for job journals and results (resume state)")
		parallel     = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulation cells (default and -worker modes)")
		queue        = flag.Int("queue", 16, "bounded job queue capacity; beyond it submissions get 429 (default and -coordinator modes)")
		retries      = flag.Int("retries", 3, "max attempts per cell before it fails permanently (default and -worker modes)")
		retryBackoff = flag.Duration("retry-backoff", 100*time.Millisecond, "delay before a cell's first retry, doubling per attempt (default and -worker modes)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "max wait for in-flight cells to checkpoint on shutdown")
		injectEvery  = flag.Int("inject-fail-every", 0, "resilience drill: fail every Nth cell's first attempt (0 = off; never use in production; default and -worker modes)")

		coordinator = flag.Bool("coordinator", false, "run as the fabric coordinator: dispatch cells to joined workers instead of simulating locally")
		workerMode  = flag.Bool("worker", false, "run as a fabric worker: execute cell batches for the coordinator at -join")
		join        = flag.String("join", "", "coordinator base URL to register with (-worker mode, required)")
		advertise   = flag.String("advertise", "", "this worker's base URL as the coordinator reaches it (-worker mode; default http://127.0.0.1:<addr port>)")

		leaseTimeout = flag.Duration("lease-timeout", 10*time.Second, "silence after which a remote worker is dropped and its cells re-dispatched; workers heartbeat every tenth of it and idle workers steal a straggler's cell after a fifth (-coordinator mode)")
		cacheCap     = flag.Int("cache-capacity", 4096, "content-addressed result cache capacity in cells (default and -coordinator modes)")
	)
	flag.Parse()

	if *coordinator && *workerMode {
		log.Fatal("-coordinator and -worker are mutually exclusive")
	}

	injectHook := func() func(jobs.CellSpec, int) error {
		if *injectEvery <= 0 {
			return nil
		}
		var n atomic.Int64
		every := int64(*injectEvery)
		log.Printf("fault injection armed: every %d cells fail their first attempt", every)
		return func(c jobs.CellSpec, attempt int) error {
			if attempt == 1 && n.Add(1)%every == 0 {
				return fmt.Errorf("injected failure (drill, -inject-fail-every=%d)", every)
			}
			return nil
		}
	}

	if *workerMode {
		if *join == "" {
			log.Fatal("-worker requires -join <coordinator URL>")
		}
		adv := *advertise
		if adv == "" {
			_, port, err := net.SplitHostPort(*addr)
			if err != nil {
				log.Fatalf("-advertise required: cannot derive it from -addr %q: %v", *addr, err)
			}
			adv = "http://127.0.0.1:" + port
		}
		w := fabric.NewWorker(fabric.WorkerOptions{
			CoordinatorURL:  *join,
			AdvertiseURL:    adv,
			Parallelism:     *parallel,
			MaxAttempts:     *retries,
			RetryBackoff:    *retryBackoff,
			InjectCellError: injectHook(),
		})
		if err := w.Start(); err != nil {
			log.Fatal(err)
		}
		log.Printf("worker %s on %s, joined %s as %s (%d runners)", adv, *addr, *join, w.ID(), *parallel)
		serveUntilSignal(*addr, w.Handler(), *drainTimeout, func(context.Context) error {
			w.Close() // finishes in-flight cells and flushes their results
			return nil
		})
		return
	}

	c, err := fabric.NewCoordinator(fabric.CoordinatorOptions{
		Dir:           *journalDir,
		QueueCapacity: *queue,
		LeaseTimeout:  *leaseTimeout,
		CacheCapacity: *cacheCap,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range c.Jobs() {
		if st.State == jobs.StateCheckpointed {
			log.Printf("resuming %s (%d/%d cells checkpointed)", st.ID, st.CellsDone, st.Cells)
		}
	}
	if *coordinator {
		log.Printf("coordinator on %s (journal dir %s, lease timeout %v)",
			*addr, *journalDir, *leaseTimeout)
	} else {
		c.AddLocalWorker(fabric.WorkerOptions{
			Parallelism:     *parallel,
			MaxAttempts:     *retries,
			RetryBackoff:    *retryBackoff,
			InjectCellError: injectHook(),
		})
		log.Printf("serving on %s (journal dir %s, %d-deep queue, %d runners)",
			*addr, *journalDir, *queue, *parallel)
	}
	c.Start()
	serveUntilSignal(*addr, c.Handler(), *drainTimeout, c.Drain)
}

// serveUntilSignal runs the HTTP server until SIGINT/SIGTERM, then shuts
// the listener down and drains the mode's engine within drainTimeout.
func serveUntilSignal(addr string, h http.Handler, drainTimeout time.Duration, drain func(context.Context) error) {
	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: draining (in-flight cells checkpoint, then exit)", sig)
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := drain(ctx); err != nil {
		log.Printf("drain: %v (journal still holds every completed cell)", err)
		os.Exit(1)
	}
	log.Print("drained cleanly; restart with the same -journal-dir to resume")
}
