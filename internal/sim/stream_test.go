package sim

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/workloads"
)

// TestSimulatorReadsOnlyTheStream: once a kernel's line stream is built,
// the simulator needs nothing else of its instructions. A kernel whose
// every Inst is then blanked to Inst{} runs to the same Result and the
// same stats tree as an untouched build of it, on the serial engine and
// the sharded one, with the address-indexed L1 TLB and with the
// partitioned one under the translation-aware warp scheduler.
func TestSimulatorReadsOnlyTheStream(t *testing.T) {
	trans := arch.Default()
	trans.TLBIndexPolicy = arch.IndexByTBShared
	trans.TBScheduler = arch.ScheduleTLBAware
	trans.WarpScheduler = arch.WarpTransAware
	params := workloads.Params{PageShift: 12, Seed: 1, Scale: 0.1}
	for _, bench := range []string{"bfs", "atax"} {
		spec, ok := workloads.ByName(bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", bench)
		}
		for _, c := range []struct {
			name string
			cfg  arch.Config
		}{{"baseline", arch.Default()}, {"transaware", trans}} {
			for _, eng := range []struct {
				name string
				set  func(*Simulator)
			}{
				{"serial", func(*Simulator) {}},
				{"sliced", func(s *Simulator) { s.SetCellParallel(2); s.SetL2Slices(4) }},
			} {
				t.Run(bench+"/"+c.name+"/"+eng.name, func(t *testing.T) {
					run := func(blank bool) (result, tree []byte) {
						k, as := spec.Build(params)
						if blank {
							lineShift := uint(bits.TrailingZeros(uint(c.cfg.L1Cache.LineBytes)))
							if _, err := k.Lines(lineShift); err != nil {
								t.Fatal(err)
							}
							for ti := range k.TBs {
								for w := range k.TBs[ti].Warps {
									clear(k.TBs[ti].Warps[w].Insts)
								}
							}
						}
						s, err := New(c.cfg, k, as)
						if err != nil {
							t.Fatal(err)
						}
						eng.set(s)
						r := s.Run()
						result, err = json.Marshal(r)
						if err != nil {
							t.Fatal(err)
						}
						var buf bytes.Buffer
						if err := r.Stats.WriteJSON(&buf); err != nil {
							t.Fatal(err)
						}
						return result, buf.Bytes()
					}
					wantResult, wantTree := run(false)
					gotResult, gotTree := run(true)
					if !bytes.Equal(gotResult, wantResult) {
						t.Errorf("blanked kernel's Result differs:\n got %s\nwant %s", gotResult, wantResult)
					}
					if !bytes.Equal(gotTree, wantTree) {
						t.Error("blanked kernel's stats tree differs from the untouched kernel's")
					}
				})
			}
		}
	}
}
