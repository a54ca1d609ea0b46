package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as the gputlbsim command: the tests
// re-execute it with this variable set, so every run parses its own flags
// and exits exactly as the installed command would.
const runMainEnv = "GPUTLB_GPUTLBSIM_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// simResult is the part of gputlbsim -json output the tests compare.
type simResult struct {
	PageSize string
	Result   struct {
		Cycles       int64
		L1TLBHitRate float64
	}
}

// gputlbsim runs the command on a small bfs with args and decodes its -json
// output.
func gputlbsim(t *testing.T, args ...string) simResult {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-bench", "bfs", "-scale", "0.1", "-json"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("gputlbsim %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	var r simResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		t.Fatalf("gputlbsim %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return r
}

// writeConfig writes a partial -config file.
func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestConfigFileL1Entries: a -config file's L1 TLB size takes effect
// unless -l1entries is given, which overrides it.
func TestConfigFileL1Entries(t *testing.T) {
	path := writeConfig(t, `{"L1TLB": {"Entries": 256}}`)
	def := gputlbsim(t)
	file := gputlbsim(t, "-config", path)
	flag := gputlbsim(t, "-l1entries", "256")
	if file != flag {
		t.Errorf("-config with 256 entries = %+v, want -l1entries 256's %+v", file, flag)
	}
	if file == def {
		t.Errorf("-config with 256 entries ran the default 64-entry L1 TLB: %+v", file)
	}
	if got := gputlbsim(t, "-config", path, "-l1entries", "64"); got != def {
		t.Errorf("-l1entries 64 over a 256-entry -config = %+v, want the default %+v", got, def)
	}
}

// TestConfigFile2MPages: a -config file with 2MB pages builds the workload
// at the 2MB page size, exactly like -pagesize 2m.
func TestConfigFile2MPages(t *testing.T) {
	file := gputlbsim(t, "-config", writeConfig(t, `{"PageSize": 2097152}`))
	flag := gputlbsim(t, "-pagesize", "2m")
	if file != flag || file.PageSize != "2m" {
		t.Errorf("-config with 2MB pages = %+v, want -pagesize 2m's %+v", file, flag)
	}
}
