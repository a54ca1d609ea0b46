package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// The journal is the durability substrate: one append-only JSONL file per
// job. The first record is the normalized spec; every completed cell
// appends a record before it counts as done; a terminal record marks the
// job done or failed. Loading tolerates a torn final line — the artifact
// of a process killed mid-append — by dropping it.
//
// The journal API is exported for the scheduler in internal/fabric, which
// journals every job through it whatever mode gputlbd runs in; a journal
// written in one mode resumes in any other.

const (
	journalSuffix = ".journal"
	resultSuffix  = ".result.json"
)

// journalRecord is one line of a job journal.
type journalRecord struct {
	Type string `json:"type"` // "spec" | "cell" | "fail" | "end"
	// Spec-record fields.
	ID   string   `json:"id,omitempty"`
	Name string   `json:"name,omitempty"`
	Spec *JobSpec `json:"spec,omitempty"`
	// Cell- and fail-record fields.
	Index    int         `json:"index,omitempty"`
	Attempts int         `json:"attempts,omitempty"`
	Result   *CellResult `json:"result,omitempty"`
	Error    string      `json:"error,omitempty"`
	// Worker attributes a cell outcome to the worker (or "cache") that
	// produced it; empty in journals written before workers existed.
	Worker string `json:"worker,omitempty"`
	// End-record field: number of permanently failed cells.
	Failed int `json:"failed,omitempty"`
}

// Journal appends records to a job's JSONL file. Safe for concurrent
// appends; every append is one write, fsync'd before it returns, so a
// completed cell survives a process kill.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// JournalPath returns the journal file path of job id under dir.
func JournalPath(dir, id string) string { return filepath.Join(dir, id+journalSuffix) }

// ResultPath returns the result artifact path of job id under dir.
func ResultPath(dir, id string) string { return filepath.Join(dir, id+resultSuffix) }

// CreateJournal starts a new journal with its spec header record. The
// spec must already be normalized; the header is what makes a resume
// self-contained.
//
// The header is written and fsync'd under <id>.journal.tmp, which
// ScanJournals ignores, and only then linked into place and the
// directory fsync'd: a process killed mid-create leaves at most a stray
// temporary file, never a header-less journal that would stop the next
// start-up. Linking, unlike renaming, refuses to replace a journal that
// already exists.
func CreateJournal(dir, id, name string, spec *JobSpec) (*Journal, error) {
	path := JournalPath(dir, id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if createJournalHook != nil {
		if err := createJournalHook(f); err != nil {
			f.Close()
			return nil, err
		}
	}
	j := &Journal{f: f}
	err = j.append(journalRecord{Type: "spec", ID: id, Name: name, Spec: spec})
	if err == nil {
		err = os.Link(tmp, path)
	}
	// A stray temporary file is harmless (ScanJournals skips it and the
	// next create truncates it), so its removal is best effort.
	_ = os.Remove(tmp)
	if err == nil {
		if err = syncDir(dir); err != nil {
			// The caller is told the job was not accepted, so it must
			// not come back on the next start-up.
			_ = os.Remove(path)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// createJournalHook, when non-nil, runs once CreateJournal has created
// the temporary file and before it writes the header. An error stops
// CreateJournal there and leaves the file as it is, as a kill would.
var createJournalHook func(f *os.File) error

// syncDir fsyncs a directory, making a new entry in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// OpenJournal reopens an existing journal for appending (resume). Its
// tail is first made to agree with LoadJournal: a final line that does
// not parse (a torn append, which LoadJournal drops) is cut off, and a
// final record missing only its newline gets one. Otherwise the first new
// record would extend that line, leaving garbage mid-file where the next
// LoadJournal rejects the whole journal.
func OpenJournal(dir, id string) (*Journal, error) {
	path := JournalPath(dir, id)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	body := bytes.TrimSuffix(data, []byte("\n"))
	start := bytes.LastIndexByte(body, '\n') + 1
	var rec journalRecord
	if last := body[start:]; len(bytes.TrimSpace(last)) > 0 && json.Unmarshal(last, &rec) != nil {
		err = f.Truncate(int64(start))
	} else if len(body) == len(data) && len(data) > 0 {
		_, err = f.Write([]byte{'\n'})
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f}, nil
}

func (j *Journal) append(recs ...journalRecord) error {
	var buf []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf = append(append(buf, line...), '\n')
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	return j.f.Sync()
}

// CellRecord is one cell's durable outcome: a result, or (Result nil) a
// permanent failure with its message.
type CellRecord struct {
	Index    int
	Attempts int
	// Worker attributes the outcome to a worker id, or "cache" for a
	// cache-served cell.
	Worker string
	Result *CellResult
	Error  string
}

// AppendCells records a batch of cell outcomes in one write and one
// fsync. Only the batch's final line can tear in a crash, and LoadJournal
// drops a torn final line, so a batch is durable up to a prefix.
func (j *Journal) AppendCells(cells []CellRecord) error {
	recs := make([]journalRecord, len(cells))
	for i, c := range cells {
		recs[i] = journalRecord{Type: "cell", Index: c.Index, Attempts: c.Attempts, Worker: c.Worker, Result: c.Result}
		if c.Result == nil {
			recs[i].Type, recs[i].Error = "fail", c.Error
		}
	}
	return j.append(recs...)
}

// AppendEnd records the terminal record: the job finished with the given
// number of permanently failed cells (zero means done).
func (j *Journal) AppendEnd(failed int) error {
	return j.append(journalRecord{Type: "end", Failed: failed})
}

// Close releases the journal's file handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// JournalState is a loaded journal: the job identity plus every durable
// cell outcome.
type JournalState struct {
	// ID and Name identify the job; Spec is its normalized spec.
	ID   string
	Name string
	Spec *JobSpec
	// Completed maps cell index to the journaled result; Failed maps cell
	// index to the permanent failure message.
	Completed map[int]CellResult
	Failed    map[int]string
	// Terminal reports whether an end record was seen (the job finished —
	// done or failed — and must not be resumed); EndFailed is that
	// record's permanently-failed count.
	Terminal  bool
	EndFailed int
	// SpecErr, when non-empty, names a field of the spec record this
	// build does not know, written by a build that had it. The field's
	// setting would be dropped on resume, so an unfinished job with a
	// SpecErr must fail rather than resume.
	SpecErr string
}

// LoadJournal parses a job journal. A final line that does not parse is
// dropped (torn write from a kill); a malformed line elsewhere is an
// error, as is a missing or invalid spec header. A spec field this build
// does not know is no error but sets SpecErr.
func LoadJournal(path string) (*JournalState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st := &JournalState{Completed: map[int]CellResult{}, Failed: map[int]string{}}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jobs: reading %s: %w", path, err)
	}
	// A journal killed mid-append may end without a newline; the scanner
	// still yields that partial tail as a line, and it simply fails to
	// parse below.
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == len(lines)-1 {
				break // torn final line: the cell it recorded never became durable
			}
			return nil, fmt.Errorf("jobs: %s line %d: %w", path, i+1, err)
		}
		switch rec.Type {
		case "spec":
			if i != 0 {
				return nil, fmt.Errorf("jobs: %s line %d: unexpected spec record", path, i+1)
			}
			st.ID, st.Name, st.Spec = rec.ID, rec.Name, rec.Spec
			// The lenient decode succeeded, so only an unknown field
			// fails the strict one.
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(new(journalRecord)); err != nil {
				st.SpecErr = "journaled spec: " + err.Error()
			}
		case "cell":
			if rec.Result != nil {
				st.Completed[rec.Index] = *rec.Result
			}
		case "fail":
			st.Failed[rec.Index] = rec.Error
		case "end":
			st.Terminal = true
			st.EndFailed = rec.Failed
		default:
			return nil, fmt.Errorf("jobs: %s line %d: unknown record type %q", path, i+1, rec.Type)
		}
	}
	if st.Spec == nil || st.ID == "" {
		return nil, fmt.Errorf("jobs: %s: missing spec header", path)
	}
	return st, nil
}

// ScanJournals loads every journal in dir, sorted by file name (and
// therefore by submission order, since IDs are zero-padded sequence
// numbers). Unreadable journals are returned as errors, not dropped.
func ScanJournals(dir string) ([]*JournalState, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var states []*JournalState
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), journalSuffix) {
			continue
		}
		st, err := LoadJournal(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		states = append(states, st)
	}
	return states, nil
}

// EncodeResult renders the canonical result artifact. The encoding is the
// byte-identity contract: indented JSON of Result with a trailing newline.
// Every execution path — a daemon with its in-process worker, a resumed
// job, a coordinator with remote workers, an in-process reference run —
// funnels through this one encoder, which is what makes "byte-identical
// result file" a checkable property rather than a hope.
func EncodeResult(res Result) ([]byte, error) {
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
