package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLintPublicPackageFlagsUndocumented(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "lib.go"), `// Package lib is documented.
package lib

// Documented has a comment.
func Documented() {}

func Undocumented() {}

type Bare struct{}

// Grouped constants share the declaration comment.
const (
	A = 1
	B = 2
)

var Naked = 3
`)
	var problems []string
	lintPublicPackage(dir, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	wantSubstrings := []string{"function Undocumented", "type Bare", "var Naked"}
	if len(problems) != len(wantSubstrings) {
		t.Fatalf("got %d problems %v, want %d", len(problems), problems, len(wantSubstrings))
	}
	for _, want := range wantSubstrings {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no problem mentioning %q in %v", want, problems)
		}
	}
}

func TestLintInternalPackages(t *testing.T) {
	dir := t.TempDir()
	// good: has doc.go with a proper package comment
	write(t, filepath.Join(dir, "good", "doc.go"), "// Package good does things.\npackage good\n")
	// bad1: no doc.go at all
	write(t, filepath.Join(dir, "bad1", "bad1.go"), "package bad1\n")
	// bad2: doc.go whose comment does not follow the Package convention
	write(t, filepath.Join(dir, "bad2", "doc.go"), "// does stuff\npackage bad2\n")
	var problems []string
	lintInternalPackages(dir, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	if len(problems) != 2 {
		t.Fatalf("got %v, want 2 problems", problems)
	}
	for _, p := range problems {
		if strings.Contains(p, "good") {
			t.Errorf("documented package flagged: %s", p)
		}
	}
}

func TestLintCommands(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "tool", "main.go"), "// Command tool runs.\npackage main\n\nfunc main() {}\n")
	write(t, filepath.Join(dir, "naked", "main.go"), "package main\n\nfunc main() {}\n")
	var problems []string
	lintCommands(dir, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	if len(problems) != 1 || !strings.Contains(problems[0], "naked") {
		t.Fatalf("got %v, want exactly the naked command flagged", problems)
	}
}

func TestLintRegisteredRoutes(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "OPERATIONS.md"), "## API\n\n`POST /jobs` submits a job.\n")
	write(t, filepath.Join(dir, "internal", "srv", "srv.go"), `package srv

import "net/http"

func handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("GET /undocumented", func(http.ResponseWriter, *http.Request) {})
	return mux
}
`)
	// Non-route HandleFunc patterns (no "METHOD /path" shape) are ignored.
	write(t, filepath.Join(dir, "cmd", "tool", "main.go"), `// Command tool runs.
package main

import "net/http"

func main() {
	http.HandleFunc("/legacy-no-method", func(http.ResponseWriter, *http.Request) {})
}
`)
	var problems []string
	lintRegisteredRoutes(dir, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	if len(problems) != 1 || !strings.Contains(problems[0], `"GET /undocumented"`) {
		t.Fatalf("got %v, want exactly the undocumented route flagged", problems)
	}
}

func TestLintRegisteredRoutesRequiresOperationsFile(t *testing.T) {
	dir := t.TempDir()
	var problems []string
	lintRegisteredRoutes(dir, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	if len(problems) != 1 || !strings.Contains(problems[0], "OPERATIONS.md") {
		t.Fatalf("got %v, want a missing-OPERATIONS.md problem", problems)
	}
}

func TestLintDaemonFlags(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "cmd", "gputlbd", "main.go"), `// Command gputlbd serves.
package main

import (
	"flag"
	"time"
)

func main() {
	var n int
	addr := flag.String("addr", ":1", "listen address")
	flag.IntVar(&n, "flush-size", 32, "cap")
	drain := flag.Duration("drain-timeout", time.Minute, "drain bound")
	flag.Parse()
	_ = flag.Lookup("not-a-definition")
	_, _ = addr, drain
}
`)
	write(t, filepath.Join(dir, "OPERATIONS.md"), "Run `gputlbd -addr :8372`; results go out at most\n-flush-size at a time (a -drain-timeout-ish word does not count).\n")
	write(t, filepath.Join(dir, "README.md"), `# gputlbd

| Flag (gputlbd) | Meaning |
|---|---|
| `+"`-addr`"+` | listen address |
| `+"`-flush-size` / `-flush-wait`"+` | batching, not `+"`-addr`"+`-free |

Prose after the table may name `+"`-gone`"+` flags.
`)
	var problems []string
	lintDaemonFlags(dir, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	joined := strings.Join(problems, "\n")
	if len(problems) != 2 || !strings.Contains(joined, "README.md:6: -flush-wait is in the gputlbd flag table") ||
		!strings.Contains(joined, "flag -drain-timeout is missing from OPERATIONS.md") {
		t.Fatalf("got %q, want the stale -flush-wait row and the undocumented -drain-timeout", problems)
	}

	// OPERATIONS.md's flag table gets the same reverse check: a row for a
	// removed flag, or a row naming none, is stale.
	write(t, filepath.Join(dir, "OPERATIONS.md"), `Knobs, then -drain-timeout:

| flag | default | meaning |
|---|---|---|
| `+"`-addr`"+` | :1 | listen address |
| `+"`-heartbeat`"+` | 1s | removed: the coordinator sets it |
| `+"`-flush-size`"+` | 32 | cap |
| batch size | 4 | a row naming no flag |

Prose may name `+"`-gone`"+` flags.
`)
	problems = nil
	lintDaemonFlags(dir, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	joined = strings.Join(problems, "\n")
	if len(problems) != 3 || !strings.Contains(joined, "OPERATIONS.md:6: -heartbeat is in the gputlbd flag table") ||
		!strings.Contains(joined, "OPERATIONS.md:8: a gputlbd flag table row names no flag") ||
		!strings.Contains(joined, "README.md:6: -flush-wait") {
		t.Fatalf("got %q, want the stale -heartbeat and flagless OPERATIONS rows and README's -flush-wait", problems)
	}
}

func TestLintMechRow(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "README.md"), "| Flag | Meaning |\n|---|---|\n"+
		"| `-mech` | `base`, `subentry`, and compressed unquoted |\n")
	var problems []string
	lintMechRow(dir, []string{"base", "subentry", "compressed"}, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	if len(problems) != 1 || !strings.Contains(problems[0], "README.md:3: mechanism compressed is missing") {
		t.Fatalf("got %q, want only the unlisted compressed mechanism", problems)
	}

	write(t, filepath.Join(dir, "README.md"), "# no table\n")
	problems = nil
	lintMechRow(dir, []string{"base"}, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	if len(problems) != 1 || !strings.Contains(problems[0], "no -mech row") {
		t.Fatalf("got %q, want a missing -mech row problem", problems)
	}
}

func TestLintConfigNames(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "README.md"), "# Daemon\n\nConfig names accepted in grids: `baseline`,\n"+
		"`sched`, `retired`; explicit `cells` lists also take `multi-x`.\n")
	var problems []string
	lintConfigNames(dir, []string{"baseline", "sched", "sched+part"}, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	sort.Strings(problems)
	if len(problems) != 2 ||
		!strings.Contains(problems[0], "README.md:3: config sched+part is missing") ||
		!strings.Contains(problems[1], "README.md:3: retired is in the grid config list but is no config name") {
		t.Fatalf("got %q, want the missing sched+part and the unknown retired", problems)
	}

	write(t, filepath.Join(dir, "README.md"), "# no list\n")
	problems = nil
	lintConfigNames(dir, []string{"baseline"}, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	if len(problems) != 1 || !strings.Contains(problems[0], "no \"Config names accepted in grids:\" list") {
		t.Fatalf("got %q, want a missing list problem", problems)
	}
}

// applyf renders a report call the way main does.
func applyf(format string, args []any) string {
	return fmt.Sprintf(format, args...)
}

func TestLintCellSpecFields(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "README.md"), "| Field | Meaning |\n|---|---|\n"+
		"| `jobs.CellSpec.Tenants` / `\"tenants\"` | co-run |\n"+
		"| `-l2-slices` / `jobs.CellSpec.L2Slices` / `\"l2_slices\"` | a removed field |\n"+
		"| `jobs.CellSpec.QueueCap` / `\"queue\"` | a wrong tag |\n"+
		"| `-mech` / `jobs.CellSpec.Mech` | no tag |\n")
	var problems []string
	tags := map[string]string{"Tenants": "tenants", "QueueCap": "queue_cap", "Mech": "mech"}
	lintCellSpecFields(dir, tags, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	if len(problems) != 2 ||
		!strings.Contains(problems[0], "README.md:4: jobs.CellSpec has no field L2Slices") ||
		!strings.Contains(problems[1], `README.md:5: jobs.CellSpec.QueueCap's JSON tag is "queue_cap", not "queue"`) {
		t.Fatalf("got %q, want the stale L2Slices row and the wrong QueueCap tag", problems)
	}
	if tags := jsonTags(reflect.TypeOf(struct {
		Bench string `json:"bench"`
		Scale int    `json:"scale,omitempty"`
	}{})); tags["Bench"] != "bench" || tags["Scale"] != "scale" {
		t.Errorf("jsonTags = %v, want bench and scale", tags)
	}
}

func TestLintPolicyNames(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "README.md"), "# Run\n\n```sh\n"+
		"go run ./cmd/gputlbsim -bench bfs -policy share   # stale\n"+
		"go run ./cmd/gputlbsim -bench bfs -policy sched+part+share\n```\n\n"+
		"`gputlbsim -policy` takes a name, and `gputlbsim -policy=part` is stale too.\n"+
		"A placeholder: `gputlbsim -bench bfs -policy <name>`.\n")
	write(t, filepath.Join(dir, "CHANGES.md"), "`gputlbsim -bench mis -policy share` ran at the time.\n")
	write(t, filepath.Join(dir, "cmd", "sim", "main.go"), "// Command sim.\n//\n"+
		"//\tgputlbsim -bench atax -policy share  # stale\n"+
		"//\tgputlbsim -bench atax -policy sched\n"+
		"package main\n")
	write(t, filepath.Join(dir, "cmd", "sim", "main_test.go"), "package main\n\n// gputlbsim -policy share in a test is not documentation.\n")
	var problems []string
	lintPolicyNames(dir, []string{"baseline", "sched", "sched+part+share"}, func(f string, a ...any) {
		problems = append(problems, applyf(f, a))
	})
	sort.Strings(problems)
	want := []string{
		filepath.Join(dir, "README.md") + ":4: gputlbsim -policy share names no config",
		filepath.Join(dir, "README.md") + ":8: gputlbsim -policy part names no config",
		filepath.Join(dir, "cmd", "sim", "main.go") + ":3: gputlbsim -policy share names no config",
	}
	if len(problems) != len(want) {
		t.Fatalf("got %q, want %d problems %q", problems, len(want), want)
	}
	for i := range want {
		if !strings.HasPrefix(problems[i], want[i]) {
			t.Errorf("problem %d = %q, want prefix %q", i, problems[i], want[i])
		}
	}
}
