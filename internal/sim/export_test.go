package sim

import (
	"math/rand"

	"gputlb/internal/engine"
)

// Pass orders the sharded engine's fan-outs can be run in by tests: every
// phase-1 step, slice pass and SM pass of a fan-out touches only state its
// item owns, so the result must not depend on the order.
type passOrderKind int

const (
	passForward passOrderKind = iota
	passReverse
	passShuffled
)

func (k passOrderKind) String() string {
	return [...]string{"forward", "reverse", "shuffled"}[k]
}

// setPassOrder makes every fan-out of the next sharded run (phase 1 over the
// shards, the slice passes, the SM pass) visit its items in the given
// order; passShuffled draws a fresh permutation per fan-out from seed.
func (s *Simulator) setPassOrder(k passOrderKind, seed int64) {
	switch k {
	case passForward:
		s.passOrderHook = nil
	case passReverse:
		s.passOrderHook = func(n int) []int {
			o := make([]int, n)
			for i := range o {
				o[i] = n - 1 - i
			}
			return o
		}
	case passShuffled:
		rng := rand.New(rand.NewSource(seed))
		s.passOrderHook = rng.Perm
	}
}

// SetSliceApplyObserver installs a test observer of each slice pass's
// canonical op order; it is called once per op a slice pass replays with the
// slice index and the op's (request cycle, shard index, per-shard
// sequence).
func (s *Simulator) SetSliceApplyObserver(fn func(slice int, t engine.Cycle, shard int, seq int64)) {
	s.onSliceApply = fn
}
