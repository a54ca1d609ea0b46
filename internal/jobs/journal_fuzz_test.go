package jobs

import (
	"os"
	"reflect"
	"testing"
)

// fuzzRecord is the record FuzzLoadJournal appends to an accepted
// journal, whole or torn.
const fuzzRecord = `{"type":"cell","index":7,"attempts":1,"worker":"w-0001","result":{"bench":"atax","config":"baseline","cycles":9}}`

// FuzzLoadJournal feeds LoadJournal arbitrary journal bytes. It must never
// panic, and a journal it accepts must have a spec and an ID. An accepted
// journal then resumes as the coordinator resumes one — OpenJournal, then
// appends — and must load back to the same state after a torn append
// (cut bytes into fuzzRecord, a crash mid-write), and to that state plus
// the record after a whole one. The seed corpus is in
// testdata/fuzz/FuzzLoadJournal; `make fuzz-seeds` replays it.
func FuzzLoadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		dir := t.TempDir()
		const id = "job-0001"
		path := JournalPath(dir, id)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := LoadJournal(path)
		if err != nil {
			return
		}
		if st.Spec == nil || st.ID == "" {
			t.Fatalf("accepted a journal without spec or ID: %+v", st)
		}

		j, err := OpenJournal(dir, id)
		if err != nil {
			t.Fatalf("reopening an accepted journal: %v", err)
		}
		torn := fuzzRecord[:1+int(cut)%(len(fuzzRecord)-1)]
		if _, err := j.f.Write([]byte(torn)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		got, err := LoadJournal(path)
		if err != nil {
			t.Fatalf("torn append %q made the journal unloadable: %v", torn, err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("torn append %q changed the state:\n got %+v\nwant %+v", torn, got, st)
		}

		j, err = OpenJournal(dir, id)
		if err != nil {
			t.Fatalf("reopening after a torn append: %v", err)
		}
		res := CellResult{Bench: "atax", Config: "baseline", Cycles: 9}
		if err := j.AppendCells([]CellRecord{{Index: 7, Attempts: 1, Worker: "w-0001", Result: &res}}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		if got, err = LoadJournal(path); err != nil {
			t.Fatalf("resumed append made the journal unloadable: %v", err)
		}
		st.Completed[7] = res
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("resumed append: got %+v, want %+v", got, st)
		}
	})
}
