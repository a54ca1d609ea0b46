package cliutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gputlb/internal/stats"
)

// flagNames returns the sorted names registered on fs.
func flagNames(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}

// newFlagSet builds a FlagSet the way a CLI's main() does.
func newFlagSet(name string) (*flag.FlagSet, *OutputFlags) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var out OutputFlags
	if name == "traceconv" {
		out.RegisterProfiles(fs)
	} else {
		out.Register(fs)
	}
	return fs, &out
}

// TestFlagWiringIdenticalAcrossCLIs proves the three CLIs register the
// shared output flags with identical names, defaults, and usage strings,
// and that parsing fans the values out to the same fields. traceconv is
// the deliberate exception: it never simulates, so it registers only the
// pprof pair.
func TestFlagWiringIdenticalAcrossCLIs(t *testing.T) {
	full := []string{"cpuprofile", "memprofile", "stats-out", "trace-out"}
	profilesOnly := []string{"cpuprofile", "memprofile"}
	clis := map[string][]string{
		"evaluate":  full,
		"gputlbsim": full,
		"traceconv": profilesOnly,
	}

	// Usage strings and defaults must match across every CLI that
	// registers a given flag.
	canonical := map[string]*flag.Flag{}
	for name, want := range clis {
		fs, _ := newFlagSet(name)
		if got := flagNames(fs); len(got) != len(want) {
			t.Fatalf("%s registers %v, want %v", name, got, want)
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s registers %v, want %v", name, got, want)
				}
			}
		}
		fs.VisitAll(func(f *flag.Flag) {
			if c, ok := canonical[f.Name]; ok {
				if f.Usage != c.Usage || f.DefValue != c.DefValue {
					t.Errorf("-%s differs between CLIs: usage %q vs %q, default %q vs %q",
						f.Name, f.Usage, c.Usage, f.DefValue, c.DefValue)
				}
			} else {
				canonical[f.Name] = f
			}
		})
	}

	// Parsing the same arguments fans out to the same struct fields in
	// every full CLI.
	args := []string{
		"-stats-out", "s.json", "-trace-out", "t.json",
		"-cpuprofile", "c.pprof", "-memprofile", "m.pprof",
	}
	for _, name := range []string{"evaluate", "gputlbsim"} {
		fs, out := newFlagSet(name)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := OutputFlags{StatsOut: "s.json", TraceOut: "t.json", CPUProfile: "c.pprof", MemProfile: "m.pprof"}
		if *out != want {
			t.Errorf("%s parsed %+v, want %+v", name, *out, want)
		}
	}

	// traceconv accepts the profile pair and rejects the simulation-output
	// flags it does not have.
	fs, out := newFlagSet("traceconv")
	if err := fs.Parse([]string{"-cpuprofile", "c.pprof", "-memprofile", "m.pprof"}); err != nil {
		t.Fatalf("traceconv: %v", err)
	}
	if out.CPUProfile != "c.pprof" || out.MemProfile != "m.pprof" {
		t.Errorf("traceconv parsed %+v", *out)
	}
	fs2, _ := newFlagSet("traceconv")
	if err := fs2.Parse([]string{"-stats-out", "s.json"}); err == nil {
		t.Error("traceconv accepted -stats-out; it has no stats to export")
	}
}

// TestOutputFlagsConstructors checks the nil-when-unrequested contract:
// experiment Options receive nil collectors unless the matching flag was
// given, so unexporting runs pay no collection cost.
func TestOutputFlagsConstructors(t *testing.T) {
	var off OutputFlags
	if d := off.NewStatsDump(); d != nil {
		t.Errorf("NewStatsDump without -stats-out = %v, want nil", d)
	}
	if tr := off.NewTracer(); tr != nil {
		t.Errorf("NewTracer without -trace-out = %v, want nil", tr)
	}

	on := OutputFlags{StatsOut: "s.json", TraceOut: "t.json"}
	if on.NewStatsDump() == nil {
		t.Error("NewStatsDump with -stats-out = nil")
	}
	if on.NewTracer() == nil {
		t.Error("NewTracer with -trace-out = nil")
	}
}

// TestOutputFlagsCheckRemote: a -daemon run refuses the outputs that stay
// on the daemon and names the flag, but keeps client-side profiles.
func TestOutputFlagsCheckRemote(t *testing.T) {
	if err := (&OutputFlags{CPUProfile: "c.pprof", MemProfile: "m.pprof"}).CheckRemote(); err != nil {
		t.Errorf("profiles refused for a remote run: %v", err)
	}
	for flagName, f := range map[string]OutputFlags{
		"-stats-out": {StatsOut: "s.json"},
		"-trace-out": {TraceOut: "t.json"},
	} {
		if err := f.CheckRemote(); err == nil || !strings.Contains(err.Error(), flagName) {
			t.Errorf("%s with a remote run: %v, want an error naming the flag", flagName, err)
		}
	}
}

// TestOutputFlagsExport runs the full flag → collector → file path and
// checks every requested artifact lands on disk.
func TestOutputFlagsExport(t *testing.T) {
	dir := t.TempDir()
	out := OutputFlags{
		StatsOut: filepath.Join(dir, "stats.json"),
		TraceOut: filepath.Join(dir, "trace.json"),
	}
	d := out.NewStatsDump()
	tr := out.NewTracer()
	tr.Complete(0, 0, "cell", "sweep", 0, 10, nil)
	if err := out.Export(d, tr); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{out.StatsOut, out.TraceOut} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("requested output missing: %v", err)
		}
	}

	// CSV is selected by extension.
	out.StatsOut = filepath.Join(dir, "stats.csv")
	if err := out.Export(d, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out.StatsOut); err != nil {
		t.Errorf("CSV stats output missing: %v", err)
	}

	// No flags set: Export is a no-op even with nil collectors.
	var off OutputFlags
	if err := off.Export(nil, nil); err != nil {
		t.Errorf("no-op export: %v", err)
	}
}

// TestOutputFlagsProfiles drives Start/stop and checks both pprof files
// appear.
func TestOutputFlagsProfiles(t *testing.T) {
	dir := t.TempDir()
	out := OutputFlags{
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
	}
	stop, err := out.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{out.CPUProfile, out.MemProfile} {
		if fi, err := os.Stat(p); err != nil {
			t.Errorf("profile missing: %v", err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestExportSnapshot covers gputlbsim's single-run stats path.
func TestExportSnapshot(t *testing.T) {
	r := stats.NewRegistry("run")
	c := r.Counter("cycles")
	c.Add(42)
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := ExportSnapshot(path, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("snapshot export is empty")
	}
	if err := ExportSnapshot(path, nil); err == nil {
		t.Error("nil snapshot should fail loudly, not write an empty file")
	}
}
