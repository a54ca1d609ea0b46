package sim

import (
	"math/rand"

	"gputlb/internal/engine"
)

// Pass orders the sharded engine's fan-outs can be run in by tests: every
// phase-1 step and SM pass of a fan-out touches only state its shard owns,
// and every slice only state its slice owns, so the result must not depend
// on the order.
type passOrderKind int

const (
	passForward passOrderKind = iota
	passReverse
	passShuffled
)

func (k passOrderKind) String() string {
	return [...]string{"forward", "reverse", "shuffled"}[k]
}

// setPassOrder makes every fan-out of the next sharded run (phase 1 and the
// SM pass over the shards) visit its items in the given order, and any
// order but passForward splits the one slice pass into one pass per slice,
// run in that order; passShuffled draws a fresh permutation per fan-out
// from seed.
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

// SetSliceApplyObserver installs a test observer of the canonical order
// each slice acts on ops in; it is called once per op and slice that acts
// on it with the slice index and the op's (request cycle, shard index,
// per-shard sequence).
func (s *Simulator) SetSliceApplyObserver(fn func(slice int, t engine.Cycle, shard int, seq int64)) {
	s.onSliceApply = fn
}
