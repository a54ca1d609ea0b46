package trace

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"gputlb/internal/arch"
	"gputlb/internal/vm"
)

// matchCoalesce decodes every warp of k's line stream and requires each
// memory instruction to come out exactly as Coalesce makes it from the
// lanes, at every page shift given; each compute instruction to come out
// of Compute as its clamped latency, max(Compute, 1), while Compute
// before a memory instruction consumes nothing; and each warp's stream to
// end with its last instruction.
func matchCoalesce(t *testing.T, k *Kernel, lineShift uint, pageShifts ...uint) {
	t.Helper()
	ls, err := k.Lines(lineShift)
	if err != nil {
		t.Fatal(err)
	}
	var want, got Coalesced
	for _, pageShift := range pageShifts {
		for ti, tb := range k.TBs {
			for w, wt := range tb.Warps {
				cur := ls.Warp(ti, w)
				for i, in := range wt.Insts {
					if cur.Done() {
						t.Fatalf("TB %d warp %d: stream ends before inst %d", ti, w, i)
					}
					if !in.IsMem() {
						if c, ok := cur.Compute(); !ok || c != max(in.Compute, 1) {
							t.Fatalf("TB %d warp %d inst %d: Compute() = %d, %v; want %d, true", ti, w, i, c, ok, max(in.Compute, 1))
						}
						continue
					}
					left := len(cur.buf)
					if c, ok := cur.Compute(); ok || len(cur.buf) != left {
						t.Fatalf("TB %d warp %d inst %d: Compute() = %d, %v before a memory instruction, consuming %d bytes",
							ti, w, i, c, ok, left-len(cur.buf))
					}
					want.Coalesce(in.Addrs, pageShift, lineShift)
					cur.Next(&got, pageShift)
					if !sameCoalesced(&got, &want) {
						t.Fatalf("TB %d warp %d inst %d, pages of 2^%d: stream gives pages %v lines %v line pages %v; Coalesce gives %v %v %v",
							ti, w, i, pageShift, got.Pages, got.Lines, got.LinePage, want.Pages, want.Lines, want.LinePage)
					}
				}
				if !cur.Done() {
					t.Fatalf("TB %d warp %d: %d bytes left after the last instruction", ti, w, len(cur.buf))
				}
			}
		}
	}
}

func sameCoalesced(a, b *Coalesced) bool {
	if len(a.Pages) != len(b.Pages) || len(a.Lines) != len(b.Lines) || len(a.LinePage) != len(b.LinePage) {
		return false
	}
	for i := range a.Pages {
		if a.Pages[i] != b.Pages[i] {
			return false
		}
	}
	for i := range a.Lines {
		if a.Lines[i] != b.Lines[i] || a.LinePage[i] != b.LinePage[i] {
			return false
		}
	}
	return true
}

// kernelFromBytes turns arbitrary bytes into a kernel of two TBs of up to
// three warps each: a byte b below 0x20 is a compute instruction of b*b-2
// cycles (below 1 for b < 2, more than a one-byte varint from b = 12), any other
// starts a memory instruction of 1..WarpSize lanes whose addresses are
// the following bytes read as small steps, line-sized steps, backward
// steps and far jumps (across pages, and across 2MB regions).
func kernelFromBytes(data []byte) *Kernel {
	k := &Kernel{Name: "fuzz", ThreadsPerTB: 96, TBs: make([]TBTrace, 2)}
	for t := range k.TBs {
		k.TBs[t].Warps = make([]WarpTrace, 3)
	}
	addr := vm.Addr(1 << 30)
	slot := 0
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		wt := &k.TBs[slot%2].Warps[slot/2%3]
		slot++
		if op < 0x20 {
			wt.Insts = append(wt.Insts, Inst{Compute: int(op)*int(op) - 2})
			continue
		}
		lanes := make([]vm.Addr, 1+int(op)%arch.WarpSize)
		for l := range lanes {
			var b byte
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			switch b >> 6 {
			case 0:
				addr += vm.Addr(b&0x3f) * 4
			case 1:
				addr += vm.Addr(b&0x3f) << 7
			case 2:
				addr -= vm.Addr(b&0x3f) << 9
			default:
				addr ^= vm.Addr(b&0x3f) << 20
			}
			lanes[l] = addr
		}
		wt.Insts = append(wt.Insts, Inst{Addrs: lanes})
	}
	return k
}

// FuzzLineStream: for any lane sets and compute latencies, the line stream
// decodes to exactly what Coalesce makes of the lanes, at 128-byte lines
// with 128-byte, 4KB and 2MB pages and at 16-byte lines with 256-byte
// pages, and to each compute instruction's clamped latency.
func FuzzLineStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x3f, 0x01, 0x01, 0x01})
	f.Add([]byte{0xff, 0x41, 0x41, 0xc1, 0x81, 0x00, 0x10, 0x9f, 0xff, 0xfe, 0xfd})
	full := []byte{0x3f}
	for l := 0; l < arch.WarpSize; l++ {
		full = append(full, 0x40|byte(l%7), 0xc0|byte(l))
	}
	f.Add(full)
	f.Fuzz(func(t *testing.T, data []byte) {
		k := kernelFromBytes(data)
		matchCoalesce(t, k, 7, 7, 12, 21)
		matchCoalesce(t, kernelFromBytes(data), 4, 8)
	})
}

// A far jump between instructions, or between lines of one instruction,
// takes a multi-byte varint in either direction; a memory instruction
// without lanes is an empty entry that leaves the next delta's base alone.
func TestLineStreamFarDeltas(t *testing.T) {
	far := vm.Addr(1) << 46
	k := &Kernel{TBs: []TBTrace{{Warps: []WarpTrace{{Insts: []Inst{
		{Addrs: []vm.Addr{far, 0, far + 4096}},
		{Compute: 3},
		{Addrs: []vm.Addr{}},
		{Addrs: []vm.Addr{128}},
		{Addrs: []vm.Addr{far - 128, far - 128, 5}},
	}}}}}}
	matchCoalesce(t, k, 7, 7, 12, 21)
}

// Lines builds once per line size and hands every later caller, however
// concurrent, the same stream.
func TestLinesMemoized(t *testing.T) {
	k := kernelFromBytes([]byte{0x25, 0x41, 0x42, 0x43, 0x08, 0x3a, 0xc1})
	var wg sync.WaitGroup
	got := make([]*LineStream, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ls, err := k.Lines(7)
			if err != nil {
				t.Error(err)
			}
			got[i] = ls
		}()
	}
	wg.Wait()
	for i, ls := range got {
		if ls != got[0] {
			t.Fatalf("call %d got stream %p, call 0 got %p", i, ls, got[0])
		}
	}
	other, err := k.Lines(6)
	if err != nil {
		t.Fatal(err)
	}
	if other == got[0] {
		t.Error("64-byte lines share the 128-byte lines' stream")
	}
}

// An instruction wider than a warp is refused when the stream is built.
func TestLinesRejectsWideInstruction(t *testing.T) {
	k := &Kernel{Name: "wide", TBs: []TBTrace{{Warps: []WarpTrace{{Insts: []Inst{
		{Addrs: make([]vm.Addr, arch.WarpSize+1)},
	}}}}}}
	if _, err := k.Lines(7); err == nil || !strings.Contains(err.Error(), "more than a warp") {
		t.Fatalf("Lines of a 33-lane instruction: %v, want an error", err)
	}
}

// The layout is the documented one: a memory instruction is a count byte,
// then zigzag-varint deltas, the first against the previous memory
// instruction's first line; a compute instruction is computeOp and the
// uvarint of its latency, at least 1.
func TestLineStreamLayout(t *testing.T) {
	if computeOp <= arch.WarpSize {
		t.Fatalf("computeOp %d can be a memory instruction's count", computeOp)
	}
	k := &Kernel{TBs: []TBTrace{{Warps: []WarpTrace{{Insts: []Inst{
		{Addrs: []vm.Addr{10 << 7, 11 << 7, 9 << 7}},
		{Compute: 300},
		{Addrs: []vm.Addr{8 << 7}},
		{Compute: 0},
	}}}}}}
	ls, err := k.Lines(7)
	if err != nil {
		t.Fatal(err)
	}
	zz := func(d int64) []byte { return binary.AppendUvarint(nil, uint64(d<<1)^uint64(d>>63)) }
	var want []byte
	want = append(want, 3)
	want = append(want, zz(10)...)
	want = append(want, zz(1)...)
	want = append(want, zz(-2)...)
	want = append(want, computeOp, 300&0x7f|0x80, 300>>7)
	want = append(want, 1)
	want = append(want, zz(-2)...)
	want = append(want, computeOp, 1)
	if got := ls.tbs[0].buf; string(got) != string(want) {
		t.Errorf("stream = %v, want %v", got, want)
	}
}
