package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gputlb/internal/jobs"
	"gputlb/internal/workloads"
)

const (
	// serviceRounds is how many times each benchmark appears in one phase's
	// job list: ten benchmarks times ten rounds gives 100 jobs, enough that
	// the p90 latency has ten samples beyond it.
	serviceRounds = 10
	// serviceRepeats is how many of each benchmark's jobs repeat an earlier
	// spec of the same run (result-cache reads on the fabric).
	serviceRepeats = 3
	// serviceScale keeps cells small, so per-cell service overhead is a
	// large share of each job's latency.
	serviceScale = 0.05
	// pollInterval is how often a client asks for its job's status.
	pollInterval = 2 * time.Millisecond
	// startTimeout bounds a daemon's start-up and stopTimeout its drain.
	startTimeout = 30 * time.Second
	stopTimeout  = 15 * time.Second
)

// serviceConfigs are the two configurations of every service job.
var serviceConfigs = []string{"baseline", "sched+part+share"}

// plannedJob is one submission of the service workload. Repeat jobs carry
// the exact spec of the earlier job First.
type plannedJob struct {
	Spec  jobs.JobSpec
	First int
}

// planJobs draws a run's job list from its seed. Every benchmark gets
// `rounds` jobs, each one benchmark under serviceConfigs at a small scale,
// so the work is the same mix on every seed. The seed draws the order of
// the benchmarks within each round, which of a benchmark's jobs after its
// first repeat an earlier job of the same benchmark verbatim, and which
// one. Fresh jobs get cell seeds derived from the run seed and their
// position, so every run seed simulates new cells.
func planJobs(seed int64, rounds int) []plannedJob {
	rng := rand.New(rand.NewSource(seed))
	names := workloads.Names()
	repeat := make([][]bool, len(names)) // [bench][round]
	for b := range repeat {
		repeat[b] = make([]bool, rounds)
		for _, r := range rng.Perm(rounds - 1)[:min(serviceRepeats, rounds-1)] {
			repeat[b][r+1] = true
		}
	}
	fresh := make([][]int, len(names)) // plan indices of each bench's fresh jobs
	var plan []plannedJob
	for r := 0; r < rounds; r++ {
		for _, b := range rng.Perm(len(names)) {
			i := len(plan)
			if repeat[b][r] {
				j := fresh[b][rng.Intn(len(fresh[b]))]
				plan = append(plan, plannedJob{Spec: plan[j].Spec, First: j})
				continue
			}
			fresh[b] = append(fresh[b], i)
			plan = append(plan, plannedJob{
				Spec: jobs.JobSpec{
					Name:       fmt.Sprintf("perfbench-%d", i),
					Benchmarks: []string{names[b]},
					Configs:    serviceConfigs,
					Scale:      serviceScale,
					Seed:       cellSeed(seed, i),
				},
				First: i,
			})
		}
	}
	return plan
}

// cellSeed mixes the run seed and a job index into a positive workload
// seed (splitmix64 finalizer), distinct across runs and jobs.
func cellSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>2) + 1
}

// cellSpecs expands a planned job into its cells, as the daemon does.
func (p plannedJob) cellSpecs() []jobs.CellSpec {
	var cells []jobs.CellSpec
	for _, b := range p.Spec.Benchmarks {
		for _, c := range p.Spec.Configs {
			cells = append(cells, jobs.CellSpec{Bench: b, Config: c, Scale: p.Spec.Scale, Seed: p.Spec.Seed})
		}
	}
	return cells
}

// parseMetrics reads the daemons' flat "path value" /metrics text.
func parseMetrics(text string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		path, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics line %q: want \"path value\"", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[path] = v
	}
	return out, sc.Err()
}

// ------------------------------------------------------------ daemons

// daemon is one gputlbd process this run started.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
}

var (
	daemonsMu sync.Mutex
	daemons   []*daemon
)

// freePort asks the kernel for an unused localhost port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	return port, err
}

// startDaemon launches gputlbd on a free port with its journal and log in
// dir.
func startDaemon(bin, dir, name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	journal := filepath.Join(dir, name)
	if err := os.MkdirAll(journal, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := "127.0.0.1:" + port
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-journal-dir", journal}, args...)...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	daemonsMu.Lock()
	daemons = append(daemons, d)
	daemonsMu.Unlock()
	return d, nil
}

// stop drains the daemon with SIGTERM, killing it if it overruns, and
// waits until it has exited.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(stopTimeout):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// stopAllDaemons stops every daemon still running.
func stopAllDaemons() {
	daemonsMu.Lock()
	ds := daemons
	daemons = nil
	daemonsMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// rssMB reads the daemon's peak resident set.
func (d *daemon) rssMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// get fetches one URL's body, failing on a non-200 status.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// waitReady polls until ready reports true, the daemon exits, or the
// start-up timeout passes.
func (d *daemon) waitReady(ready func() bool) error {
	deadline := time.Now().Add(startTimeout)
	for !ready() {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up", d.url)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", d.url, startTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (d *daemon) healthy() bool {
	_, err := get(d.url + "/healthz")
	return err == nil
}

// metrics reads the daemon's /metrics counters.
func (d *daemon) metrics() (map[string]float64, error) {
	body, err := get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(body))
}

// ------------------------------------------------------- closed loop

// jobSample is one job's timing and result bytes.
type jobSample struct {
	submit, wait, result time.Duration
	raw                  []byte
	err                  error
}

func (s jobSample) latency() time.Duration { return s.submit + s.wait + s.result }

// closedLoop sends the plan's jobs from `workers` clients, each submitting
// its next job only after fetching the previous one's result.
func closedLoop(r *run, rec *recorder, parent int, layer, url string, plan []plannedJob) ([]jobSample, interval) {
	client := &jobs.Client{BaseURL: url}
	samples := make([]jobSample, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	clk := startClock()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					return
				}
				samples[i] = runJob(rec, parent, layer, client, plan[i].Spec, i+1, track)
			}
		}(c)
	}
	wg.Wait()
	wall := clk.stop()
	for _, s := range samples {
		r.attempted += 2 + int64(len(serviceConfigs)) // submit, result fetch, cells
		if s.err != nil {
			r.failed++
			r.check(false, "%s job: %v", layer, s.err)
		}
	}
	return samples, wall
}

// runJob submits one job, waits for it and fetches its result bytes, with a
// span around each call.
func runJob(rec *recorder, parent int, layer string, c *jobs.Client, spec jobs.JobSpec, group, track int) jobSample {
	var s jobSample
	job := rec.begin(parent, layer, "job", group, track)
	defer rec.end(job)
	t0 := time.Now()
	sp := rec.begin(job, layer, layer+".Submit", group, track)
	id, err := c.Submit(spec)
	rec.end(sp)
	t1 := time.Now()
	s.submit = t1.Sub(t0)
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sp = rec.begin(job, layer, layer+".Wait", group, track)
	st, err := c.Wait(ctx, id, pollInterval)
	rec.end(sp)
	t2 := time.Now()
	s.wait = t2.Sub(t1)
	if err != nil {
		s.err = fmt.Errorf("wait %s: %w", id, err)
		return s
	}
	if st.State != jobs.StateDone {
		s.err = fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		return s
	}
	sp = rec.begin(job, layer, layer+".RawResult", group, track)
	s.raw, err = c.RawResult(id)
	rec.end(sp)
	s.result = time.Since(t2)
	if err != nil {
		s.err = fmt.Errorf("result %s: %w", id, err)
	}
	return s
}

// ---------------------------------------------------------- phases

// phase is one service phase's outcome: a fresh daemon set serving the
// whole plan.
type phase struct {
	setup, wall interval
	rss         float64
	samples     []jobSample
	counters    map[string]float64
}

// runDaemonPhase serves the plan from a fresh single gputlbd.
func runDaemonPhase(r *run, rec *recorder, parent int, dir string, plan []plannedJob) (phase, error) {
	var ph phase
	clk := startClock()
	sp := rec.begin(parent, "jobs", "start gputlbd", 0, 0)
	d, err := startDaemon(r.daemonBin, dir, "daemon", "-parallel", strconv.Itoa(workers))
	if err == nil {
		err = d.waitReady(d.healthy)
	}
	rec.end(sp)
	if err != nil {
		return ph, err
	}
	defer d.stop()
	ph.setup = clk.stop()
	ph.samples, ph.wall = closedLoop(r, rec, parent, "jobs", d.url, plan)
	if ph.counters, err = d.metrics(); err != nil {
		return ph, err
	}
	ph.rss, err = d.rssMB()
	return ph, err
}

// runFabricPhase serves the plan from a fresh coordinator with `workers`
// workers of one runner each.
func runFabricPhase(r *run, rec *recorder, parent int, dir string, plan []plannedJob) (phase, error) {
	var ph phase
	clk := startClock()
	sp := rec.begin(parent, "fabric", "start coordinator and workers", 0, 0)
	ds, err := startFabric(r.daemonBin, dir)
	rec.end(sp)
	for _, d := range ds {
		defer d.stop()
	}
	if err != nil {
		return ph, err
	}
	ph.setup = clk.stop()
	coord := ds[0]
	ph.samples, ph.wall = closedLoop(r, rec, parent, "fabric", coord.url, plan)
	if ph.counters, err = coord.metrics(); err != nil {
		return ph, err
	}
	for _, d := range ds {
		mb, err := d.rssMB()
		if err != nil {
			return ph, err
		}
		ph.rss += mb
	}
	return ph, nil
}

// startFabric starts a coordinator and its workers and waits until every
// worker has registered. The coordinator is first in the returned list.
func startFabric(bin, dir string) ([]*daemon, error) {
	coord, err := startDaemon(bin, dir, "coordinator", "-coordinator")
	if err != nil {
		return nil, err
	}
	ds := []*daemon{coord}
	if err := coord.waitReady(coord.healthy); err != nil {
		return ds, err
	}
	for i := 0; i < workers; i++ {
		w, err := startDaemon(bin, dir, fmt.Sprintf("worker%d", i), "-worker", "-join", coord.url, "-parallel", "1")
		if err != nil {
			return ds, err
		}
		ds = append(ds, w)
	}
	err = coord.waitReady(func() bool {
		body, err := get(coord.url + "/workers")
		var ws []json.RawMessage
		return err == nil && json.Unmarshal(body, &ws) == nil && len(ws) == workers
	})
	return ds, err
}

// ---------------------------------------------------------- workload

// serviceIter is one iteration: the plan through the daemon, then through
// the fabric.
type serviceIter struct {
	daemon, fabric phase
}

func (it serviceIter) setup() interval { return it.daemon.setup.plus(it.fabric.setup) }
func (it serviceIter) wall() interval  { return it.daemon.wall.plus(it.fabric.wall) }

// runService runs one iteration in a fresh directory and checks that every
// job's result bytes are identical between daemon and fabric, and that
// every repeat returned the same bytes as its first submission.
func runService(r *run, rec *recorder, parent int, iter int, plan []plannedJob) (serviceIter, error) {
	var it serviceIter
	dir := filepath.Join(r.outDir, fmt.Sprintf("service-%d-%d", os.Getpid(), iter))
	if err := os.RemoveAll(dir); err != nil {
		return it, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return it, err
	}
	defer os.RemoveAll(dir)
	var err error
	if it.daemon, err = runDaemonPhase(r, rec, parent, dir, plan); err != nil {
		return it, fmt.Errorf("daemon phase: %w", err)
	}
	if it.fabric, err = runFabricPhase(r, rec, parent, dir, plan); err != nil {
		return it, fmt.Errorf("fabric phase: %w", err)
	}
	for i, p := range plan {
		d, f := it.daemon.samples[i].raw, it.fabric.samples[i].raw
		r.check(bytes.Equal(d, f), "job %d: daemon and fabric results differ", i)
		r.check(bytes.Equal(d, it.daemon.samples[p.First].raw), "job %d: repeat of job %d returned different bytes", i, p.First)
	}
	return it, nil
}

// resultsOf decodes a phase's job results.
func resultsOf(ph phase) ([]jobs.Result, error) {
	out := make([]jobs.Result, len(ph.samples))
	for i, s := range ph.samples {
		if err := json.Unmarshal(s.raw, &out[i]); err != nil {
			return nil, fmt.Errorf("job %d result: %w", i, err)
		}
	}
	return out, nil
}

// checkAgainstInProcess compares every fresh job's cells with in-process
// jobs.RunCell of the same specs, with the trace cache emptied first so the
// time includes the trace build a fresh daemon job pays. It returns each
// fresh job's in-process time.
func checkAgainstInProcess(r *run, rec *recorder, parent int, plan []plannedJob, results []jobs.Result) map[int]time.Duration {
	took := map[int]time.Duration{}
	id := rec.begin(parent, "bench", "in-process reference", 0, 0)
	defer rec.end(id)
	for i, p := range plan {
		if p.First != i {
			continue
		}
		workloads.ClearTraceCache()
		t0 := time.Now()
		for j, cs := range p.cellSpecs() {
			sp := rec.begin(id, "jobs", "jobs.RunCell "+cs.Bench+" "+cs.Config, i+1, 0)
			want, err := jobs.RunCell(cs)
			rec.end(sp)
			r.attempted++
			if err != nil {
				r.failed++
				r.check(false, "job %d cell %d: RunCell: %v", i, j, err)
				continue
			}
			ok := j < len(results[i].Cells) && reflect.DeepEqual(results[i].Cells[j], want)
			r.check(ok, "job %d cell %d (%s %s): service result differs from in-process RunCell", i, j, cs.Bench, cs.Config)
		}
		took[i] = time.Since(t0)
	}
	return took
}

// resultInsts sums the simulated warp instructions in a phase's results.
func resultInsts(results []jobs.Result) int64 {
	var n int64
	for _, res := range results {
		for _, c := range res.Cells {
			n += c.InstsIssued
		}
	}
	return n
}

// service is the 2-client closed loop against a fresh single daemon and a
// fresh coordinator with two workers: jobs and fabric do the work here.
func service(r *run) error {
	plan := planJobs(r.seed, serviceRounds)
	if r.traced {
		return serviceTraced(r, plan)
	}
	var first serviceIter
	for iter := 0; r.more(iter); iter++ {
		it, err := runService(r, nil, 0, iter, plan)
		if err != nil {
			return err
		}
		results, err := resultsOf(it.daemon)
		if err != nil {
			return err
		}
		if iter == 0 {
			first = it
			checkAgainstInProcess(r, nil, 0, plan, results)
		}
		for i := range plan {
			r.check(bytes.Equal(it.daemon.samples[i].raw, first.daemon.samples[i].raw),
				"iteration %d job %d: result differs from iteration 0", iter, i)
		}
		r.sampleTime("wall_s", it.wall())
		r.sampleTime("setup_s", it.setup())
		r.sample("sim_minst_per_s", float64(2*resultInsts(results))/it.wall().secs()/1e6)
		r.sample("peak_rss_mb", it.daemon.rss+it.fabric.rss)
		fmt.Fprintf(os.Stderr, "perfbench: service iteration %d: daemon %.2fs (p50 %.1fms), fabric %.2fs (p50 %.1fms), setup %.3fs, %d jobs per phase\n",
			iter, it.daemon.wall.wall, latencyPct(it.daemon, 0.5), it.fabric.wall.wall, latencyPct(it.fabric, 0.5), it.setup().wall, len(plan))
	}
	r.setMedians()
	return nil
}

// latencyPct is a phase's p-th job latency percentile in ms.
func latencyPct(ph phase, p float64) float64 {
	lat := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		lat[i] = ms(s.latency())
	}
	return percentile(lat, p)
}

// serviceTraced is the traced service run: one untraced iteration gives the
// latency percentiles and the overhead reference, the same iteration traced
// gives the per-call breakdown, and the in-process reference gives each
// job's service overhead.
func serviceTraced(r *run, plan []plannedJob) error {
	plain, err := runService(r, nil, 0, 0, plan)
	if err != nil {
		return err
	}
	rec := newRecorder()
	root := rec.begin(0, "bench", "service", 0, 0)
	it, err := runService(r, rec, root, 1, plan)
	if err != nil {
		return err
	}
	r.set("trace.overhead_frac", it.setup().plus(it.wall()).secs()/plain.setup().plus(plain.wall()).secs()-1)
	for i := range plan {
		r.check(bytes.Equal(it.daemon.samples[i].raw, plain.daemon.samples[i].raw),
			"job %d: traced result differs from the untraced one", i)
	}
	results, err := resultsOf(it.daemon)
	if err != nil {
		return err
	}
	took := checkAgainstInProcess(r, rec, root, plan, results)

	for _, pp := range []struct {
		name       string
		plain, trc phase
	}{{"jobs", plain.daemon, it.daemon}, {"fabric", plain.fabric, it.fabric}} {
		n := len(pp.plain.samples)
		r.check(tailPercentile(n) >= 0.9, "%s: %d samples are too few for a p90", pp.name, n)
		r.set(pp.name+".job_p50_ms", latencyPct(pp.plain, 0.5))
		r.set(pp.name+".job_p90_ms", latencyPct(pp.plain, 0.9))
		r.set(pp.name+".samples", float64(n))
		r.set(pp.name+".cells_per_s", float64(n*len(serviceConfigs))/pp.plain.wall.secs())
		var sub, wait, res, over []float64
		for i, s := range pp.trc.samples {
			sub = append(sub, ms(s.submit))
			wait = append(wait, ms(s.wait))
			res = append(res, ms(s.result))
			if d, ok := took[i]; ok {
				over = append(over, ms(s.latency()-d))
			}
		}
		r.set(pp.name+".submit_ms", median(sub))
		r.set(pp.name+".wait_ms", median(wait))
		r.set(pp.name+".result_ms", median(res))
		r.set(pp.name+".overhead_ms", median(over))
	}
	dc := plain.daemon.counters
	r.set("jobs.cells_retried", dc["gputlbd/jobs/cells_retried"])
	r.set("jobs.cells_failed", dc["gputlbd/jobs/cells_failed"])
	fc := plain.fabric.counters
	r.set("fabric.cache_hit_ratio", ratio(fc["gputlbd/result_cache/hits"], fc["gputlbd/result_cache/hits"]+fc["gputlbd/result_cache/misses"]))
	r.set("fabric.dup_ratio", ratio(fc["gputlbd/fabric/results_duplicate"], fc["gputlbd/fabric/results_received"]))
	r.set("fabric.cells_stolen", fc["gputlbd/fabric/cells_stolen"])
	r.check(dc["gputlbd/jobs/cells_completed"] > 0, "daemon /metrics reports no completed cells")
	r.check(fc["gputlbd/fabric/results_received"] > 0, "coordinator /metrics reports no received results")
	return r.finishTrace(rec, root)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
