package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"gputlb/internal/jobs"
)

// The content-addressed cache keys a cell by WHAT it computes, not how
// the request spelled it. The key is built by writing the cell's
// identity-bearing fields in a fixed order with explicit labels and
// quoting into a SHA-256, never by hashing request JSON — so JSON field
// order, whitespace, and omitted-vs-zero fields cannot produce distinct
// keys for the same cell. Hash normalized specs: Normalize's defaulting
// (scale 0 -> 1.0, seed 0 -> 1, "base" -> "", "ws" -> "") is what makes an
// omitted field and its explicit default collide, as they must. A cell
// names no engine: every cell a daemon or worker runs runs on the serial
// engine, so the key holds none.

// CellKey returns the canonical content hash of a cell spec — the cache
// key under which its result is stored. Identical for any two specs that
// provably compute the same result (JSON field order, spelled-out
// defaults) and distinct for any identity-bearing difference (workload,
// params, config, tenants, churn schedule, objective, mechanism,
// allocator). Hash normalized specs; see the rules above.
func CellKey(c jobs.CellSpec) string {
	h := sha256.New()
	// Version prefix: bump when the hashed field set or the meaning of a
	// field changes, so stale persisted keys from older builds can never
	// alias. v4: the page shift and the engine's serialization tag left
	// the cell.
	fmt.Fprintf(h, "gputlb-cell/v4\n")
	fmt.Fprintf(h, "bench=%q\n", c.Bench)
	fmt.Fprintf(h, "config=%q\n", c.Config)
	fmt.Fprintf(h, "tenants=%d\n", len(c.Tenants))
	for _, t := range c.Tenants {
		fmt.Fprintf(h, "tenant=%q\n", t)
	}
	// -1 precision round-trips the float64 exactly.
	fmt.Fprintf(h, "scale=%s\n", strconv.FormatFloat(c.Scale, 'g', -1, 64))
	fmt.Fprintf(h, "seed=%d\n", c.Seed)
	fmt.Fprintf(h, "arrivals=%d\n", len(c.Arrivals))
	for _, a := range c.Arrivals {
		fmt.Fprintf(h, "arrival=%q@%d\n", a.Bench, a.At)
	}
	fmt.Fprintf(h, "queue_cap=%d\n", c.QueueCap)
	fmt.Fprintf(h, "objective=%q\n", c.Objective)
	fmt.Fprintf(h, "mech=%q\n", c.Mech)
	fmt.Fprintf(h, "alloc=%q\n", c.Alloc)
	return hex.EncodeToString(h.Sum(nil))
}
