package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"gputlb/internal/experiments"
	"gputlb/internal/stats"
)

// OutputFlags is the output plumbing every CLI shares: stats/trace export
// destinations and pprof profile capture. Each tool registers the same
// flag names with the same semantics through Register, so `-stats-out`,
// `-trace-out`, `-cpuprofile`, and `-memprofile` behave identically
// across evaluate, gputlbsim, and traceconv.
type OutputFlags struct {
	// StatsOut, when non-empty, receives the run's stats (.csv for CSV,
	// else indented JSON).
	StatsOut string
	// TraceOut, when non-empty, receives a Chrome trace_event JSON of the
	// run (open in chrome://tracing or Perfetto).
	TraceOut string
	// CPUProfile and MemProfile, when non-empty, receive pprof profiles.
	CPUProfile string
	MemProfile string
}

// Register registers all four output flags on fs.
func (f *OutputFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.StatsOut, "stats-out",
		"", "write every simulated cell's full stats tree to this file (.csv for CSV, else JSON)")
	fs.StringVar(&f.TraceOut, "trace-out",
		"", "write a Chrome trace_event JSON of all simulated cells (open in chrome://tracing or Perfetto)")
	f.RegisterProfiles(fs)
}

// RegisterProfiles registers only the pprof flags — for tools that never
// simulate (traceconv) and so have no stats or event trace to export.
func (f *OutputFlags) RegisterProfiles(fs *flag.FlagSet) {
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
}

// Start begins profile capture per the parsed flags; the returned stop
// must run before process exit (see StartProfiles).
func (f *OutputFlags) Start() (stop func() error, err error) {
	return StartProfiles(f.CPUProfile, f.MemProfile)
}

// CheckRemote rejects the outputs a -daemon run cannot produce: stats trees
// and trace events stay on the simulating side of the wire. Profiles still
// capture the client process.
func (f *OutputFlags) CheckRemote() error {
	if f.StatsOut != "" {
		return fmt.Errorf("-stats-out needs an in-process run: stats trees do not come back from -daemon")
	}
	if f.TraceOut != "" {
		return fmt.Errorf("-trace-out needs an in-process run: trace events do not come back from -daemon")
	}
	return nil
}

// NewStatsDump returns a fresh dump when -stats-out was given, else nil —
// the value experiment Options.StatsDump expects either way.
func (f *OutputFlags) NewStatsDump() *experiments.StatsDump {
	if f.StatsOut == "" {
		return nil
	}
	return &experiments.StatsDump{}
}

// NewTracer returns an unbounded tracer when -trace-out was given, else
// nil — the value experiment Options.Tracer expects either way.
func (f *OutputFlags) NewTracer() *stats.Tracer {
	if f.TraceOut == "" {
		return nil
	}
	return stats.NewTracer(0)
}

// Export writes whatever the flags requested from the collected outputs:
// the dump to -stats-out and the tracer to -trace-out. Nil arguments for
// unrequested outputs are fine.
func (f *OutputFlags) Export(d *experiments.StatsDump, tr *stats.Tracer) error {
	if f.StatsOut != "" {
		if err := ExportStatsDump(f.StatsOut, d); err != nil {
			return err
		}
	}
	if f.TraceOut != "" {
		if err := ExportTrace(f.TraceOut, tr); err != nil {
			return err
		}
	}
	return nil
}

// StartProfiles begins a CPU profile when cpuPath is non-empty and returns a
// stop function that finishes it and, when memPath is non-empty, writes a
// heap profile. stop is always safe to call (including when both paths are
// empty) and must run before process exit for the profiles to be complete.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation data
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ExportStatsDump writes a sweep's collected stats to path: CSV when the
// file name ends in .csv, indented JSON otherwise.
func ExportStatsDump(path string, d *experiments.StatsDump) error {
	if strings.HasSuffix(path, ".csv") {
		return writeFile(path, d.WriteCSV)
	}
	return writeFile(path, d.WriteJSON)
}

// ExportSnapshot writes a single run's stats tree to path: CSV when the
// file name ends in .csv, indented JSON otherwise.
func ExportSnapshot(path string, s *stats.Snapshot) error {
	if s == nil {
		return fmt.Errorf("cliutil: no stats snapshot to export")
	}
	if strings.HasSuffix(path, ".csv") {
		return writeFile(path, s.WriteCSV)
	}
	return writeFile(path, s.WriteJSON)
}

// ExportTrace writes the tracer's buffered events as Chrome trace_event
// JSON for chrome://tracing or Perfetto.
func ExportTrace(path string, t *stats.Tracer) error {
	return writeFile(path, t.WriteChromeTrace)
}
