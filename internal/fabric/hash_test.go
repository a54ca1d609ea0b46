package fabric

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"gputlb/internal/jobs"
)

// TestCellKeyFieldOrderInvariance is the canonicalization property: a
// cell spec arriving as JSON hashes identically no matter how the
// request ordered its fields. The key is computed from the decoded
// struct in a fixed field order, so this must hold by construction —
// the test guards against someone "simplifying" CellKey into a hash of
// marshaled JSON.
func TestCellKeyFieldOrderInvariance(t *testing.T) {
	fields := []string{
		`"bench":"atax"`,
		`"config":"baseline"`,
		`"scale":0.25`,
		`"seed":7`,
		`"mech":"subentry"`,
		`"alloc":"contig"`,
	}
	rng := rand.New(rand.NewSource(1))
	var want string
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(fields))
		parts := make([]string, len(fields))
		for i, p := range perm {
			parts[i] = fields[p]
		}
		doc := "{" + strings.Join(parts, ",") + "}"
		var c jobs.CellSpec
		if err := json.Unmarshal([]byte(doc), &c); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		key := CellKey(c)
		if trial == 0 {
			want = key
			continue
		}
		if key != want {
			t.Fatalf("trial %d: field order changed the key:\n%s\nvs %s\ndoc: %s", trial, key, want, doc)
		}
	}
}

// TestCellKeyTenantsAndArrivalsOrderInvariance extends the field-order
// property to multi-tenant churn cells, whose specs carry nested
// structures.
func TestCellKeyTenantsAndArrivalsOrderInvariance(t *testing.T) {
	a := `{"bench":"bfs+atax","config":"multi-shared-spatial","tenants":["bfs","atax"],"scale":0.2,"seed":1,"arrivals":[{"bench":"mvt","at":1000}],"queue_cap":2,"objective":"ws"}`
	b := `{"objective":"ws","queue_cap":2,"arrivals":[{"at":1000,"bench":"mvt"}],"seed":1,"scale":0.2,"tenants":["bfs","atax"],"config":"multi-shared-spatial","bench":"bfs+atax"}`
	var ca, cb jobs.CellSpec
	if err := json.Unmarshal([]byte(a), &ca); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &cb); err != nil {
		t.Fatal(err)
	}
	if CellKey(ca) != CellKey(cb) {
		t.Error("reordered multi-tenant JSON produced a different key")
	}
}

// TestCellKeyIdentityFields flips each identity-bearing field in turn
// and requires the key to change — the "never alias" half of the cache
// contract.
func TestCellKeyIdentityFields(t *testing.T) {
	base := jobs.CellSpec{Bench: "atax", Config: "baseline", Scale: 1, Seed: 1}
	baseKey := CellKey(base)
	mutations := map[string]func(*jobs.CellSpec){
		"bench":     func(c *jobs.CellSpec) { c.Bench = "bfs" },
		"config":    func(c *jobs.CellSpec) { c.Config = "sched" },
		"scale":     func(c *jobs.CellSpec) { c.Scale = 0.5 },
		"seed":      func(c *jobs.CellSpec) { c.Seed = 2 },
		"tenants":   func(c *jobs.CellSpec) { c.Tenants = []string{"bfs", "atax"} },
		"arrivals":  func(c *jobs.CellSpec) { c.Arrivals = []jobs.ArrivalSpec{{Bench: "mvt", At: 100}} },
		"queue_cap": func(c *jobs.CellSpec) { c.QueueCap = 3 },
		"objective": func(c *jobs.CellSpec) { c.Objective = "fairness" },
		"mech":      func(c *jobs.CellSpec) { c.Mech = "subentry" },
		"alloc":     func(c *jobs.CellSpec) { c.Alloc = "contig" },
	}
	for name, mutate := range mutations {
		c := base
		mutate(&c)
		if CellKey(c) == baseKey {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
	// Tenant order is identity: tenant i receives ASID i.
	x := base
	x.Tenants = []string{"bfs", "atax"}
	y := base
	y.Tenants = []string{"atax", "bfs"}
	if CellKey(x) == CellKey(y) {
		t.Error("tenant order should be part of the key (ASID assignment)")
	}
}

// TestCellKeyNoFieldJoinAliasing guards the classic concatenation bug:
// field values must be delimited so ("ab","c") never hashes like
// ("a","bc").
func TestCellKeyNoFieldJoinAliasing(t *testing.T) {
	a := jobs.CellSpec{Bench: "ab", Config: "c", Scale: 1, Seed: 1}
	b := jobs.CellSpec{Bench: "a", Config: "bc", Scale: 1, Seed: 1}
	if CellKey(a) == CellKey(b) {
		t.Error("adjacent fields alias under concatenation")
	}
	x := jobs.CellSpec{Bench: "t", Config: "m", Scale: 1, Seed: 1, Tenants: []string{"ab", "c"}}
	y := jobs.CellSpec{Bench: "t", Config: "m", Scale: 1, Seed: 1, Tenants: []string{"a", "bc"}}
	if CellKey(x) == CellKey(y) {
		t.Error("tenant lists alias under concatenation")
	}
}

// TestCellKeyNormalizedDefaultsCollide: a spec that omits scale/seed and
// one that spells out the defaults are the same cell after Normalize,
// and must share a key — which is why the coordinator hashes only
// normalized specs.
func TestCellKeyNormalizedDefaultsCollide(t *testing.T) {
	implicit := jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}}
	explicit := jobs.JobSpec{Benchmarks: []string{"atax"}, Configs: []string{"baseline"}, Scale: 1.0, Seed: 1}
	if err := implicit.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := explicit.Normalize(); err != nil {
		t.Fatal(err)
	}
	if CellKey(implicit.Cells[0]) != CellKey(explicit.Cells[0]) {
		t.Error("normalized default and explicit default diverge")
	}
}

// TestCellKeyPinned pins literal digests for one solo, one co-run, one churn
// and one mechanism cell: a key change re-keys every cached result, so it
// must come with a version-prefix bump, never by accident.
func TestCellKeyPinned(t *testing.T) {
	cases := []struct {
		cell jobs.CellSpec
		key  string
	}{
		{jobs.CellSpec{Bench: "atax", Config: "baseline", Scale: 1, Seed: 1},
			"abd1e655d55c9323c2dbc29a19b7f165f587b2878dd53b1a2fe44800184e89fb"},
		{jobs.CellSpec{Bench: "bfs+atax", Config: "multi-dynamic-spatial", Tenants: []string{"bfs", "atax"}, Scale: 1, Seed: 1},
			"7bce25b4eff340237e5ba77b4646b5958574aa94fddba083b55b54c926bbad91"},
		{jobs.CellSpec{Bench: "mis+pagerank", Config: "multi-controller-spatial", Tenants: []string{"mis", "pagerank"}, Scale: 0.2, Seed: 1,
			QueueCap: 2, Arrivals: []jobs.ArrivalSpec{{Bench: "mis", At: 3000}, {Bench: "pagerank", At: 6000}}, Objective: "maxmin"},
			"99380ed36bb227457eaaa2a8f3da4a6252ef2ee6740a10e031dad03c6e29c0e9"},
		{jobs.CellSpec{Bench: "bfs", Config: "baseline", Mech: "largereach", Alloc: "contig", Scale: 1, Seed: 1},
			"78e9fe5b98546cb1587b68b5fee6dcb3c75aa35f441a37ae424a601be066f330"},
	}
	for _, c := range cases {
		if got := CellKey(c.cell); got != c.key {
			t.Errorf("CellKey(%+v) = %s, want %s", c.cell, got, c.key)
		}
	}
}
