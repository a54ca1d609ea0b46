package jobs

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *JobSpec {
	t.Helper()
	s := &JobSpec{
		Benchmarks: []string{"atax"},
		Configs:    []string{"baseline", "sched"},
		Scale:      0.1,
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	j, err := CreateJournal(dir, "job-0001", "rt", spec)
	if err != nil {
		t.Fatal(err)
	}
	res := CellResult{Bench: "atax", Config: "baseline", Cycles: 123, L1TLBHitRate: 0.5}
	if err := j.AppendCells([]CellRecord{
		{Index: 0, Attempts: 2, Result: &res},
		{Index: 1, Attempts: 3, Error: "boom"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := LoadJournal(JournalPath(dir, "job-0001"))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-0001" || st.Name != "rt" {
		t.Errorf("identity = %q/%q", st.ID, st.Name)
	}
	if len(st.Spec.Cells) != 2 {
		t.Errorf("spec cells = %d, want 2", len(st.Spec.Cells))
	}
	if got := st.Completed[0]; !reflect.DeepEqual(got, res) {
		t.Errorf("completed[0] = %+v, want %+v", got, res)
	}
	if st.Failed[1] != "boom" {
		t.Errorf("failed[1] = %q", st.Failed[1])
	}
	if st.Terminal {
		t.Error("journal without end record reported terminal")
	}

	// Reopen, finish, reload: now terminal.
	j2, err := OpenJournal(dir, "job-0001")
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.AppendEnd(1); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	st, err = LoadJournal(JournalPath(dir, "job-0001"))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Terminal || st.EndFailed != 1 {
		t.Errorf("terminal=%v endFailed=%d, want true/1", st.Terminal, st.EndFailed)
	}
}

// TestJournalTornFinalLine covers the kill-mid-append case: the last line
// of the journal is a partial JSON record and must be dropped, losing
// only the cell it would have recorded.
func TestJournalTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	j, err := CreateJournal(dir, "job-0001", "torn", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCells([]CellRecord{{Index: 0, Attempts: 1, Result: &CellResult{Bench: "atax", Config: "baseline", Cycles: 1}}}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	path := JournalPath(dir, "job-0001")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"cell","index":1,"resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("torn final line should load cleanly: %v", err)
	}
	if len(st.Completed) != 1 {
		t.Errorf("completed = %d cells, want 1 (torn record dropped)", len(st.Completed))
	}
	if _, ok := st.Completed[1]; ok {
		t.Error("torn cell record must not become durable")
	}
}

// TestJournalResumeAfterTornTail: a job resumed after a kill mid-append
// reopens its journal and appends more records. They must land on lines
// of their own; glued onto the torn line, they would leave garbage
// mid-file, and the next load would reject the whole journal.
func TestJournalResumeAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := CreateJournal(dir, "job-0001", "torn", testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := JournalPath(dir, "job-0001")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"cell","index":0,"resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, err = OpenJournal(dir, "job-0001")
	if err != nil {
		t.Fatal(err)
	}
	res := CellResult{Bench: "atax", Config: "baseline", Cycles: 1}
	if err := j.AppendCells([]CellRecord{{Index: 0, Attempts: 1, Result: &res}, {Index: 1, Attempts: 1, Result: &res}}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendEnd(0); err != nil {
		t.Fatal(err)
	}
	j.Close()
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("journal resumed after a torn tail no longer loads: %v", err)
	}
	if len(st.Completed) != 2 || !st.Terminal {
		t.Errorf("completed = %d cells, terminal = %v; want 2 and true", len(st.Completed), st.Terminal)
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t)
	j, err := CreateJournal(dir, "job-0001", "corrupt", spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := JournalPath(dir, "job-0001")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, []byte("not json at all\n")...)
	data = append(data, []byte(`{"type":"end"}`+"\n")...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("mid-file corruption should be an error naming the line, got %v", err)
	}
}
