package jobs

import "os"

// SetCreateJournalHook installs CreateJournal's interruption hook for a
// test and returns the function that removes it.
func SetCreateJournalHook(hook func(f *os.File) error) (restore func()) {
	createJournalHook = hook
	return func() { createJournalHook = nil }
}
