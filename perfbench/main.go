// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed number of seconds, checks the simulator's outputs,
// and prints one JSON result line last:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"wall_s": {"value": 9.41, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set (endToEnd); with
// -trace 1 the run is a separate traced run that records spans around the
// calls into each layer, writes them as a Chrome trace, and reports the
// per-layer set (perLayer). Build and run it through run.sh:
//
//	bash perfbench/run.sh --workload repro-sweep --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	repro-sweep  the paper's Figure 10/11 grid (10 benchmarks x 4 configs),
//	             serial engine, in-process through experiments.Eval
//	sliced-cell  large cells on the sharded engine with the address-sliced
//	             barrier, plus a two-tenant churn co-run under the controller
//	service      a 2-client closed loop of small jobs against a fresh gputlbd
//	             daemon, then a fresh coordinator with 2 workers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workers is the load the benchmark applies: sweep parallelism, cell
// parallelism and client count all equal the reference box's core count.
const workers = 2

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what a user of the system sees; every workload reports all
// of them with tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_minst_per_s", "Minst/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// layers are the repository modules the traced run attributes time to;
// "bench" is the benchmark's own harness.
var layers = []string{"bench", "workloads", "experiments", "sim", "engine", "tlb", "cache", "noc", "dram", "vm", "multi", "jobs", "fabric"}

// perLayer is reported by the traced run. A metric that a workload does not
// exercise reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workloads.build_s", "s", "lower"},
		{"workloads.insts", "count", "higher"},
		{"parallel.tail_s", "s", "lower"},
		{"parallel.busy_frac", "ratio", "higher"},
		{"sim.ns_per_inst", "ns", "lower"},
		{"sim.cell_s.max", "s", "lower"},
		{"sim.cycles", "count", "lower"},
		{"experiments.paper_gap_pct", "%", "lower"},
		{"engine.phase1_s", "s", "lower"},
		{"engine.barrier_s", "s", "lower"},
		{"engine.slice_pass_s", "s", "lower"},
		{"engine.sm_pass_s", "s", "lower"},
		{"engine.serial_tail_s", "s", "lower"},
		{"engine.epochs", "count", "lower"},
		{"engine.local_events", "count", "lower"},
		{"engine.sliced_ops", "count", "lower"},
		{"engine.sm_pass_ops", "count", "lower"},
		{"engine.serial_ops", "count", "lower"},
		{"engine.parallel_fraction", "ratio", "higher"},
		{"engine.slice_imbalance", "ratio", "lower"},
		{"engine.count_projected_speedup_8", "x-structural", "higher"},
		{"engine.cycle_gap_vs_serial", "ratio", "lower"},
		{"tlb.l1_hit_rate", "ratio", "higher"},
		{"tlb.l2_hit_rate", "ratio", "higher"},
		{"vm.walks", "count", "lower"},
		{"vm.faults", "count", "lower"},
		{"cache.l1_hit_rate", "ratio", "higher"},
		{"cache.l2_hit_rate", "ratio", "higher"},
		{"noc.stalls", "count", "lower"},
		{"dram.row_hit_rate", "ratio", "higher"},
		{"tlb.probe_ns.base", "ns", "lower"},
		{"tlb.probe_ns.subentry", "ns", "lower"},
		{"tlb.probe_ns.deadblock", "ns", "lower"},
		{"tlb.probe_ns.largereach", "ns", "lower"},
		{"cache.access_ns", "ns", "lower"},
		{"noc.traverse_ns", "ns", "lower"},
		{"dram.access_ns", "ns", "lower"},
		{"vm.walk_ns", "ns", "lower"},
		{"multi.corun_s", "s", "lower"},
		{"multi.weighted_speedup", "ratio", "higher"},
		{"control.decisions", "count", "lower"},
	}
	for _, svc := range []string{"jobs", "fabric"} {
		defs = append(defs,
			metricDef{svc + ".job_p50_ms", "ms", "lower"},
			metricDef{svc + ".job_p90_ms", "ms", "lower"},
			metricDef{svc + ".samples", "count", "higher"},
			metricDef{svc + ".cells_per_s", "1/s", "higher"},
			metricDef{svc + ".submit_ms", "ms", "lower"},
			metricDef{svc + ".wait_ms", "ms", "lower"},
			metricDef{svc + ".result_ms", "ms", "lower"},
			metricDef{svc + ".overhead_ms", "ms", "lower"},
		)
	}
	defs = append(defs,
		metricDef{"jobs.cells_retried", "count", "lower"},
		metricDef{"jobs.cells_failed", "count", "lower"},
		metricDef{"fabric.cache_hit_ratio", "ratio", "higher"},
		metricDef{"fabric.dup_ratio", "ratio", "lower"},
		metricDef{"fabric.cells_stolen", "count", "lower"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
		metricDef{"trace.wall_s", "s", "lower"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"self_s." + l, "s", "lower"})
	}
	return defs
}()

// workloadFns maps each workload name to the function that runs it.
var workloadFns = map[string]func(*run) error{
	"repro-sweep": reproSweep,
	"sliced-cell": slicedCell,
	"service":     service,
}

// run is one benchmark invocation's state: options, the metrics measured so
// far, the per-iteration samples and every failed check.
type run struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	outDir    string
	daemonBin string

	start     time.Time
	attempted int64
	failed    int64
	metrics   map[string]float64
	samples   map[string][]float64  // per-iteration end-to-end values
	intervals map[string][]interval // the timed intervals behind time samples
	problems  []string
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// check records a failed output check; a run with any fails.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// sample records one iteration's value of an end-to-end metric.
func (r *run) sample(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// sampleTime records one iteration's interval of an end-to-end time
// metric, in host seconds less the stolen share.
func (r *run) sampleTime(name string, iv interval) {
	r.sample(name, iv.secs())
	r.intervals[name] = append(r.intervals[name], iv)
}

// setMedians reports each sampled metric as the median over the run's
// iterations, and prints the sample count with the quartiles.
func (r *run) setMedians() {
	quart := map[string][]float64{}
	n := 0
	for _, d := range endToEnd {
		xs := r.samples[d.Name]
		if len(xs) == 0 {
			continue
		}
		r.set(d.Name, median(xs))
		n = max(n, len(xs))
		if q1, q2, q3, ok := quartiles(xs); ok {
			quart[d.Name] = []float64{q1, q2, q3}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s per iteration %v\n", d.Name, xs)
	}
	raw := map[string]map[string]float64{}
	for name, ivs := range r.intervals {
		var wall, stolen []float64
		for _, iv := range ivs {
			wall = append(wall, iv.wall)
			stolen = append(stolen, iv.stolen)
		}
		raw[name] = map[string]float64{"wall_median": median(wall), "stolen_median": median(stolen)}
	}
	printJSONLine(map[string]any{"iterations": n, "quartiles": quart, "host_time": raw})
}

// elapsed is the time since the run started measuring.
func (r *run) elapsed() float64 { return time.Since(r.start).Seconds() }

// more reports whether another iteration of the workload's fixed work fits:
// iterations repeat until the run's time is spent, at least twice so every
// run compares the simulated counts of two iterations.
func (r *run) more(iter int) bool {
	return iter < 2 || r.elapsed() < r.seconds
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: repro-sweep, sliced-cell or service")
		seed      = flag.Int64("seed", 1, "workload seed (drives the service job mix)")
		seconds   = flag.Int("seconds", 25, "how long to keep repeating the workload's fixed work")
		traceFlag = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics and writing a Chrome trace")
		outDir    = flag.String("out", ".bench_build/perfbench", "directory for traces and daemon journals")
		daemonBin = flag.String("gputlbd", ".bench_build/perfbench/gputlbd", "gputlbd binary the service workload starts")
	)
	flag.Parse()
	fn, ok := workloadFns[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	out, err := filepath.Abs(*outDir)
	if err == nil {
		err = os.MkdirAll(out, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	r := &run{
		workload:  *workload,
		seed:      *seed,
		seconds:   float64(*seconds),
		traced:    *traceFlag != 0,
		outDir:    out,
		daemonBin: *daemonBin,
		metrics:   map[string]float64{},
		samples:   map[string][]float64{},
		intervals: map[string][]interval{},
	}

	// A signal stops every daemon this run started before exiting.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		stopAllDaemons()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", sig)
		os.Exit(1)
	}()

	printJSONLine(map[string]any{"host": hostFingerprint(), "workload": *workload, "seed": *seed, "trace": r.traced})
	r.start = time.Now()
	err = fn(r)
	stopAllDaemons()
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	rep := r.report()
	printJSONLine(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

// report assembles the result line: the metric set for the run's mode,
// each with its unit; a metric the workload did not produce reads 0.
func (r *run) report() report {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	rep := report{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if rep.Attempted < 1 {
		rep.Attempted = 1
		rep.Correct = false
	}
	for _, d := range defs {
		rep.Metrics[d.Name] = metricValue{Value: r.metrics[d.Name], Unit: d.Unit}
	}
	return rep
}

func printJSONLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs reach here
	}
	fmt.Println(string(b))
}

// hostFingerprint identifies the machine a result set was measured on.
// The count-projected 8-core speedup is labelled as the structural op-count
// projection it is: this box cannot measure an 8-core speed.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"note":       "engine.count_projected_speedup_8 is a structural op-count projection, not a measured speed",
	}
}

// interval is one timed stretch of host time: its wall-clock seconds and
// the share of the CPUs' non-idle time the hypervisor stole meanwhile (the
// steal counter of /proc/stat).
type interval struct{ wall, stolen float64 }

// secs is the interval's host seconds less the stolen share. On a shared
// virtual machine the stolen share swings with the neighbours' load; the
// time metrics leave it out so that runs at different times compare.
func (iv interval) secs() float64 { return iv.wall * (1 - iv.stolen) }

// plus joins two intervals, weighting their stolen shares by length.
func (iv interval) plus(o interval) interval {
	w := iv.wall + o.wall
	return interval{wall: w, stolen: ratio(iv.wall*iv.stolen+o.wall*o.stolen, w)}
}

// hostClock measures an interval.
type hostClock struct {
	t0          time.Time
	steal, busy float64
}

// cpuTicks reads /proc/stat's aggregate CPU counters: ticks stolen by the
// hypervisor, and ticks the CPUs were busy or stolen (not idle). A CPU
// that idles accrues no steal, so the stolen share of busy ticks is the
// share of time a runnable CPU waited for the hypervisor.
func cpuTicks() (steal, busy float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0
		}
		if i == 4 || i == 5 { // idle, iowait
			continue
		}
		busy += v
		if i == 8 {
			steal = v
		}
	}
	return steal, busy
}

func startClock() hostClock {
	c := hostClock{t0: time.Now()}
	c.steal, c.busy = cpuTicks()
	return c
}

// stop ends the interval.
func (c hostClock) stop() interval {
	wall := time.Since(c.t0).Seconds()
	steal, busy := cpuTicks()
	return interval{wall: wall, stolen: ratio(steal-c.steal, busy-c.busy)}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
