package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"gputlb/internal/jobs"
)

// The content-addressed cache keys a cell by WHAT it computes, not how
// the request spelled it. Two rules make the key sound:
//
//  1. Canonical field serialization. The key is built by writing the
//     cell's identity-bearing fields in a fixed order with explicit
//     labels and quoting into a SHA-256, never by hashing request JSON —
//     so JSON field order, whitespace, and omitted-vs-zero fields cannot
//     produce distinct keys for the same cell. Hash normalized specs:
//     Normalize's defaulting (scale 0 -> 1.0, seed 0 -> 1) is what makes
//     an omitted field and its explicit default collide, as they must.
//
//  2. An explicit serialization tag. The serial engine and the sharded
//     epoch-barrier engine are different legal serializations of the
//     model, and each l2-slice count K is a further distinct
//     serialization — same workload, (slightly) different cycle counts.
//     The tag folds exactly that and nothing more into the key: every
//     CellParallel >= 2 produces identical results, so the worker count
//     itself is deliberately NOT part of the key.

// SerializationTag names the result-distinguishing serialization of a
// cell: "serial" for the legacy engine, "sharded/l2xK" for the
// epoch-barrier engine with K address slices (l2_slices 0 and 1 both mean
// one slice). Cells differing only in this tag must never share a cache
// entry.
func SerializationTag(c jobs.CellSpec) string {
	if c.CellParallel < 2 {
		return "serial"
	}
	k := c.L2Slices
	if k < 1 {
		k = 1
	}
	return "sharded/l2x" + strconv.Itoa(k)
}

// CellKey returns the canonical content hash of a cell spec — the cache
// key under which its result is stored. Identical for any two specs that
// provably compute the same result (JSON field order, worker counts) and
// distinct for any identity-bearing difference (workload, params, config,
// tenants, churn schedule, serialization tag). Hash normalized specs;
// see the package rules above.
func CellKey(c jobs.CellSpec) string {
	h := sha256.New()
	// Version prefix: bump when the hashed field set or the meaning of a
	// serialization tag changes, so stale persisted keys from older builds
	// can never alias. v3: "sharded/l2x1" became one address slice.
	fmt.Fprintf(h, "gputlb-cell/v3\n")
	fmt.Fprintf(h, "bench=%q\n", c.Bench)
	fmt.Fprintf(h, "config=%q\n", c.Config)
	fmt.Fprintf(h, "tenants=%d\n", len(c.Tenants))
	for _, t := range c.Tenants {
		fmt.Fprintf(h, "tenant=%q\n", t)
	}
	// -1 precision round-trips the float64 exactly.
	fmt.Fprintf(h, "scale=%s\n", strconv.FormatFloat(c.Scale, 'g', -1, 64))
	fmt.Fprintf(h, "seed=%d\n", c.Seed)
	fmt.Fprintf(h, "page_shift=%d\n", c.PageShift)
	fmt.Fprintf(h, "serialization=%q\n", SerializationTag(c))
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
