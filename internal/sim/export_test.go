package sim

import "gputlb/internal/engine"

// RunShardedWorkers runs the sharded engine with an explicit worker count,
// letting tests pin worker counts (including 1, which SetCellParallel
// reserves for the serial engine) independently of the public flag.
func (s *Simulator) RunShardedWorkers(workers int) Result {
	return s.runSharded(workers)
}

// SetSliceApplyObserver installs a test observer of each slice pass's
// canonical op order; it is called once per op a slice pass replays with the
// slice index and the op's (request cycle, shard index, per-shard
// sequence). Slice passes run concurrently, so fn may only touch state
// owned by its slice.
func (s *Simulator) SetSliceApplyObserver(fn func(slice int, t engine.Cycle, shard int, seq int64)) {
	s.onSliceApply = fn
}
