package trace

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gputlb/internal/arch"
	"gputlb/internal/vm"
)

// The line stream is a kernel's memory instructions after coalescing,
// stored once per kernel so that simulation cells never re-coalesce lane
// addresses: each warp gets a byte stream holding, for every memory
// instruction in order, a count byte and then the instruction's distinct
// lines in first-occurrence order. Each line is a zigzag-varint delta:
// the first line relative to the previous memory instruction's first
// line (zero before the warp's first), every later line relative to the
// line before it. Scans move a few lines per instruction and gathers stay
// within a region, so most deltas take one or two bytes, against eight
// bytes per lane for the addresses themselves.
//
// Pages are not stored: a line of 1<<lineShift bytes lies in page
// line>>(pageShift-lineShift), and a page's first lane is also the first
// lane of some new line, so first-occurrence page order is the order in
// which the lines reach each page. Decoding thus yields exactly what
// Coalesced.Coalesce yields from the lanes, at any page size no smaller
// than a line.

// LineStream is a kernel's coalesced memory instructions, one byte stream
// per warp (see Kernel.Lines). Read-only once built; any number of
// simulations may read it at once.
type LineStream struct {
	lineShift uint
	tbs       []tbLines
}

// tbLines holds one TB's warp streams back to back: warp w's stream is
// buf[ends[w-1]:ends[w]] (from 0 for warp 0).
type tbLines struct {
	buf  []byte
	ends []uint32
}

// Warp returns a cursor at the first memory instruction of warp w of the
// kernel's TB tb.
func (ls *LineStream) Warp(tb, w int) LineCursor {
	t := &ls.tbs[tb]
	start := uint32(0)
	if w > 0 {
		start = t.ends[w-1]
	}
	return LineCursor{buf: t.buf[start:t.ends[w]:t.ends[w]], lineShift: ls.lineShift}
}

// LineCursor reads one warp's line stream in instruction order. A copy
// reads on independently, so peeking at the next instruction is decoding
// from a copy.
type LineCursor struct {
	buf       []byte
	first     vm.Addr // the previous memory instruction's first line
	lineShift uint
}

// Next decodes the warp's next memory instruction into c and advances:
// c's Lines, Pages (of 1<<pageShift bytes) and LinePage become exactly
// what c.Coalesce would make of the instruction's lanes. pageShift must be
// at least the stream's line shift, and the warp must have a memory
// instruction left. With buffers of capacity arch.WarpSize in c, Next
// never allocates.
func (r *LineCursor) Next(c *Coalesced, pageShift uint) {
	buf := r.buf
	n := int(buf[0])
	i := 1
	perPage := pageShift - r.lineShift
	pages, lines, linePage := c.Pages[:0], c.Lines[:0], c.LinePage[:0]
	line := r.first
	for k := 0; k < n; k++ {
		v := uint64(buf[i])
		if v < 0x80 {
			i++
		} else {
			var m int
			v, m = binary.Uvarint(buf[i:])
			i += m
		}
		line += vm.Addr(v>>1) ^ -vm.Addr(v&1) // zigzag: even deltas are >= 0
		if k == 0 {
			r.first = line
		}
		p := vm.VPN(line >> perPage)
		pi := len(pages) - 1
		for pi >= 0 && pages[pi] != p {
			pi--
		}
		if pi < 0 {
			pi = len(pages)
			pages = append(pages, p)
		}
		lines = append(lines, line)
		linePage = append(linePage, pi)
	}
	r.buf = buf[i:]
	c.Pages, c.Lines, c.LinePage = pages, lines, linePage
}

// Lines returns k's line stream for lines of 1<<lineShift bytes, building
// it from the lanes on first use (TBs in parallel, each coalesced by
// Coalesced.Coalesce) and keeping it with the kernel for every later call.
// Safe for concurrent use: a caller arriving during the build waits for
// it. k must not change after the first call. A memory instruction with
// more than arch.WarpSize lanes is an error.
func (k *Kernel) Lines(lineShift uint) (*LineStream, error) {
	k.linesMu.Lock()
	defer k.linesMu.Unlock()
	for _, ls := range k.lines {
		if ls.lineShift == lineShift {
			return ls, nil
		}
	}
	ls, err := buildLines(k, lineShift)
	if err != nil {
		return nil, err
	}
	k.lines = append(k.lines, ls)
	return ls, nil
}

// buildLines encodes every TB of k on GOMAXPROCS goroutines. Each TB's
// stream is a pure function of the TB, so the goroutine count never shows.
func buildLines(k *Kernel, lineShift uint) (*LineStream, error) {
	ls := &LineStream{lineShift: lineShift, tbs: make([]tbLines, len(k.TBs))}
	n := len(k.TBs)
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		err     error
	)
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c Coalesced
			var scratch []byte
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				var e error
				if scratch, e = ls.tbs[i].encode(&k.TBs[i], &c, lineShift, scratch[:0]); e != nil {
					errOnce.Do(func() { err = fmt.Errorf("trace: kernel %q TB %d: %w", k.Name, i, e) })
					next.Store(int64(n)) // stop the other goroutines early
				}
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return ls, nil
}

// encode fills t with tb's warp streams, building them in scratch and
// keeping an exact-size copy. It returns scratch for reuse.
func (t *tbLines) encode(tb *TBTrace, c *Coalesced, lineShift uint, scratch []byte) ([]byte, error) {
	buf := scratch
	t.ends = make([]uint32, len(tb.Warps))
	for w, wt := range tb.Warps {
		var first vm.Addr
		for _, in := range wt.Insts {
			if !in.IsMem() {
				continue
			}
			if len(in.Addrs) > arch.WarpSize {
				return buf, fmt.Errorf("memory instruction of %d lanes, more than a warp's %d", len(in.Addrs), arch.WarpSize)
			}
			c.Coalesce(in.Addrs, lineShift, lineShift)
			buf = append(buf, byte(len(c.Lines)))
			prev := first
			for i, line := range c.Lines {
				d := int64(line - prev)
				buf = binary.AppendUvarint(buf, uint64(d<<1)^uint64(d>>63))
				if i == 0 {
					first = line
				}
				prev = line
			}
		}
		t.ends[w] = uint32(len(buf))
	}
	t.buf = append([]byte(nil), buf...)
	return buf, nil
}
