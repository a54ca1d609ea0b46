package sim

import (
	"reflect"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/control"
	"gputlb/internal/engine"
	"gputlb/internal/sched"
)

// churnResult runs a 2-slot co-run with two mid-run arrivals under a
// partitioned L2 TLB, optionally with a controller, at the given cell
// parallelism and pass order. Fresh kernels every call: address spaces are
// stateful.
func churnResult(t *testing.T, cp int, order passOrderKind, ctlCfg *control.Config, queueCap int) Result {
	t.Helper()
	cfg := arch.Default()
	assign := sched.AssignSMs(sched.AssignSpatial, cfg.NumSMs, 2)
	k0, as0 := tinyKernel(t, 8, 4)
	k1, as1 := tinyKernel(t, 6, 3)
	ka, asa := tinyKernel(t, 5, 3)
	kb, asb := tinyKernel(t, 4, 2)
	tenants := []Tenant{
		{Name: "a", Kernel: k0, AS: as0, SMs: assign[0]},
		{Name: "b", Kernel: k1, AS: as1, SMs: assign[1]},
	}
	mopt := MultiOptions{
		L2TLBPolicy: arch.IndexByTB,
		Churn: &ChurnSpec{QueueCap: queueCap, Arrivals: []ChurnArrival{
			{Tenant: Tenant{Name: "c", Kernel: ka, AS: asa}, At: 512},
			{Tenant: Tenant{Name: "d", Kernel: kb, AS: asb}, At: 1024},
		}},
	}
	s, err := NewMulti(cfg, tenants, mopt)
	if err != nil {
		t.Fatal(err)
	}
	if ctlCfg != nil {
		if _, err := s.AttachController(*ctlCfg); err != nil {
			t.Fatal(err)
		}
	}
	s.SetCellParallel(cp)
	s.setPassOrder(order, 1)
	r := s.Run()
	r.Stats = nil
	return r
}

func TestChurnArrivalsComplete(t *testing.T) {
	r := churnResult(t, 1, passForward, nil, 2)
	if len(r.Tenants) != 4 {
		t.Fatalf("got %d tenant results, want 4", len(r.Tenants))
	}
	for _, tr := range r.Tenants {
		if tr.Shed {
			t.Fatalf("tenant %s shed with queue capacity 2", tr.Name)
		}
		if tr.InstsIssued == 0 {
			t.Errorf("tenant %s issued no instructions", tr.Name)
		}
		if tr.IPC() <= 0 {
			t.Errorf("tenant %s IPC = %f", tr.Name, tr.IPC())
		}
	}
	// Arrivals start when admitted, after their arrival cycle.
	for _, tr := range r.Tenants[2:] {
		if tr.StartCycle == 0 {
			t.Errorf("arrival %s has no start cycle", tr.Name)
		}
		if tr.Cycles <= tr.StartCycle {
			t.Errorf("arrival %s finished at %d before starting at %d", tr.Name, tr.Cycles, tr.StartCycle)
		}
	}
}

func TestChurnControllerWorkerInvariant(t *testing.T) {
	// Controller + churn must be bit-identical whichever order the sharded
	// engine's passes run in: decisions key only on barrier-sampled state.
	cc := control.Config{Period: 256}
	base := churnResult(t, 2, passForward, &cc, 1)
	for _, order := range []passOrderKind{passReverse, passShuffled} {
		if r := churnResult(t, 2, order, &cc, 1); !reflect.DeepEqual(base, r) {
			t.Errorf("%v pass order diverged from forward", order)
		}
	}
}

func TestChurnControllerEpochInvariant(t *testing.T) {
	cc := control.Config{Period: 256}
	cfgRun := func(epoch engine.Cycle) Result {
		cfg := arch.Default()
		assign := sched.AssignSMs(sched.AssignSpatial, cfg.NumSMs, 2)
		k0, as0 := tinyKernel(t, 8, 4)
		k1, as1 := tinyKernel(t, 6, 3)
		ka, asa := tinyKernel(t, 5, 3)
		tenants := []Tenant{
			{Name: "a", Kernel: k0, AS: as0, SMs: assign[0]},
			{Name: "b", Kernel: k1, AS: as1, SMs: assign[1]},
		}
		mopt := MultiOptions{
			L2TLBPolicy: arch.IndexByTB,
			Churn: &ChurnSpec{QueueCap: 1, Arrivals: []ChurnArrival{
				{Tenant: Tenant{Name: "c", Kernel: ka, AS: asa}, At: 512},
			}},
		}
		s, err := NewMulti(cfg, tenants, mopt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AttachController(cc); err != nil {
			t.Fatal(err)
		}
		s.SetCellParallel(2)
		s.SetEpochLength(epoch)
		r := s.Run()
		r.Stats = nil
		return r
	}
	base := cfgRun(0)
	for _, e := range []engine.Cycle{1, 7, 13} {
		if r := cfgRun(e); !reflect.DeepEqual(base, r) {
			t.Errorf("epoch length %d diverged from default", e)
		}
	}
}

func TestChurnShedDeterministic(t *testing.T) {
	// Queue capacity 0 and an arrival while every slot is occupied: the
	// arrival is shed, its TBs leave the workload, and the run completes.
	run := func() Result {
		cfg := arch.Default()
		assign := sched.AssignSMs(sched.AssignSpatial, cfg.NumSMs, 2)
		k0, as0 := tinyKernel(t, 8, 4)
		k1, as1 := tinyKernel(t, 6, 3)
		ka, asa := tinyKernel(t, 5, 3)
		tenants := []Tenant{
			{Name: "a", Kernel: k0, AS: as0, SMs: assign[0]},
			{Name: "b", Kernel: k1, AS: as1, SMs: assign[1]},
		}
		mopt := MultiOptions{
			L2TLBPolicy: arch.IndexByTB,
			Churn:       &ChurnSpec{QueueCap: 0, Arrivals: []ChurnArrival{{Tenant: Tenant{Name: "c", Kernel: ka, AS: asa}, At: 1}}},
		}
		s, err := NewMulti(cfg, tenants, mopt)
		if err != nil {
			t.Fatal(err)
		}
		r := s.Run()
		r.Stats = nil
		return r
	}
	r := run()
	if len(r.Tenants) != 3 {
		t.Fatalf("got %d tenant results, want 3", len(r.Tenants))
	}
	shed := r.Tenants[2]
	if !shed.Shed {
		t.Fatal("arrival at cycle 1 with zero queue capacity was not shed")
	}
	if shed.InstsIssued != 0 || shed.Cycles != 0 {
		t.Errorf("shed tenant ran: %+v", shed)
	}
	if r2 := run(); !reflect.DeepEqual(r, r2) {
		t.Error("identical shed runs diverged")
	}
}

func TestChurnDepartureDrainsCleanly(t *testing.T) {
	// A tenant departing while the controller immediately shrinks its slot
	// to zero width must drain its in-flight walks, MSHR entries, and
	// straggling L1 victim write-backs without corrupting the survivors.
	// The sharded engine is the sharp case: the departure is a barrier op
	// and same-cycle evict ops for the dead ASID apply after it.
	cc := control.Config{Period: 128}
	for _, cp := range []int{1, 4} {
		cfg := arch.Default()
		assign := sched.AssignSMs(sched.AssignSpatial, cfg.NumSMs, 2)
		kBig, asBig := tinyKernel(t, 12, 6)
		kSmall, asSmall := tinyKernel(t, 2, 1) // departs early, mid-traffic
		tenants := []Tenant{
			{Name: "big", Kernel: kBig, AS: asBig, SMs: assign[0]},
			{Name: "small", Kernel: kSmall, AS: asSmall, SMs: assign[1]},
		}
		s, err := NewMulti(cfg, tenants, MultiOptions{L2TLBPolicy: arch.IndexByTB})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AttachController(cc); err != nil {
			t.Fatal(err)
		}
		s.SetCellParallel(cp)
		r := s.Run() // panics on deadlock or a corrupted partition
		if r.Tenants[0].InstsIssued == 0 || r.Tenants[1].InstsIssued == 0 {
			t.Fatalf("cell-parallel %d: a tenant issued nothing: %+v", cp, r.Tenants)
		}
		if d, ok := s.Controller().Last(); !ok || !d.Rebalanced {
			t.Errorf("cell-parallel %d: departure did not trigger a rebalance", cp)
		}
	}
}

func TestControllerFrozenMatchesStatic(t *testing.T) {
	// A frozen controller must reproduce the plain static partition
	// bit-identically: it never changes the assignment, and its periodic
	// tick touches no model state. Check both engines.
	for _, cp := range []int{1, 4} {
		run := func(frozen bool) Result {
			cfg := arch.Default()
			tenants := twoTenants(t, cfg)
			s, err := NewMulti(cfg, tenants, MultiOptions{L2TLBPolicy: arch.IndexByTB})
			if err != nil {
				t.Fatal(err)
			}
			if frozen {
				if _, err := s.AttachController(control.Config{Period: 256, Frozen: true}); err != nil {
					t.Fatal(err)
				}
			}
			s.SetCellParallel(cp)
			r := s.Run()
			r.Stats = nil
			return r
		}
		static, frozen := run(false), run(true)
		if !reflect.DeepEqual(static, frozen) {
			t.Errorf("cell-parallel %d: frozen controller diverged from the static partition:\n static: %+v\n frozen: %+v",
				cp, static.Tenants, frozen.Tenants)
		}
	}
}

func TestPartialRunIPCUsesOwnElapsed(t *testing.T) {
	// Regression for the weighted-speedup accounting fix: a tenant admitted
	// at cycle 600 and finishing at 1000 ran for 400 cycles, not 1000.
	tr := TenantResult{Cycles: 1000, StartCycle: 600, InstsIssued: 400}
	if got := tr.IPC(); got != 1.0 {
		t.Errorf("partial-run IPC = %f, want 1.0 (own elapsed cycles)", got)
	}
	if got := (TenantResult{Cycles: 500, InstsIssued: 250}).IPC(); got != 0.5 {
		t.Errorf("full-run IPC = %f, want 0.5", got)
	}
	if got := (TenantResult{Cycles: 100, StartCycle: 100}).IPC(); got != 0 {
		t.Errorf("zero-elapsed IPC = %f, want 0", got)
	}
}

func TestChurnValidation(t *testing.T) {
	cfg := arch.Default()
	k, as := tinyKernel(t, 2, 1)
	pair := twoTenants(t, cfg)
	bad := []struct {
		name string
		spec *ChurnSpec
	}{
		{"non-positive arrival cycle", &ChurnSpec{Arrivals: []ChurnArrival{{Tenant: Tenant{Kernel: k, AS: as}, At: 0}}}},
		{"unsorted arrivals", &ChurnSpec{Arrivals: []ChurnArrival{
			{Tenant: Tenant{Kernel: k, AS: as}, At: 100},
			{Tenant: Tenant{Kernel: k, AS: as}, At: 50},
		}}},
		{"missing kernel", &ChurnSpec{Arrivals: []ChurnArrival{{Tenant: Tenant{AS: as}, At: 10}}}},
		{"explicit SM list", &ChurnSpec{Arrivals: []ChurnArrival{{Tenant: Tenant{Kernel: k, AS: as, SMs: []int{0}}, At: 10}}}},
		{"negative queue capacity", &ChurnSpec{QueueCap: -1}},
	}
	for _, c := range bad {
		if _, err := NewMulti(cfg, pair, MultiOptions{Churn: c.spec}); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// Churn needs at least two initial tenants.
	single := []Tenant{{Name: "solo", Kernel: k, AS: as}}
	if _, err := NewMulti(cfg, single, MultiOptions{Churn: &ChurnSpec{}}); err == nil {
		t.Error("single-tenant churn accepted")
	}
	// A controller needs a multi-tenant run.
	s, err := NewMulti(cfg, single, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachController(control.DefaultConfig()); err == nil {
		t.Error("controller attached to a single-tenant run")
	}
}
