package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"gputlb/internal/stats"
)

// span is one timed call into a layer. Spans of one simulation cell or one
// service job share a group id; track separates concurrent clients.
type span struct {
	ID, Parent int // Parent 0 means a root span
	Name       string
	Layer      string
	Group      int
	Track      int
	Start, End time.Duration // since the recorder started
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(parent int, layer, name string, group, track int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Layer: layer, Group: group, Track: track, Start: now, End: -1})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// snapshot returns the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time in seconds: the part of its
// interval during which none of its own children runs. Where several spans
// are in that state at once (concurrent clients), the instant is split
// equally among them, so the self times of all spans sum to the wall time
// the spans cover. For spans that never overlap their siblings this is
// exactly span time minus child-span time.
func selfTimes(spans []span) []float64 {
	var cuts []time.Duration
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	slices.Sort(cuts)
	self := make([]float64, len(spans))
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	busyChild := make([]bool, len(spans))
	var exclusive []int
	for c := 1; c < len(cuts); c++ {
		a, b := cuts[c-1], cuts[c]
		if b == a {
			continue
		}
		for i := range busyChild {
			busyChild[i] = false
		}
		var active []int
		for i, s := range spans {
			if s.Start <= a && s.End >= b {
				active = append(active, i)
				if p, ok := index[s.Parent]; ok {
					busyChild[p] = true
				}
			}
		}
		exclusive = exclusive[:0]
		for _, i := range active {
			if !busyChild[i] {
				exclusive = append(exclusive, i)
			}
		}
		share := (b - a).Seconds() / float64(len(exclusive))
		for _, i := range exclusive {
			self[i] += share
		}
	}
	return self
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, t := range selfTimes(spans) {
		out[spans[i].Layer] += t
	}
	return out
}

// writeChromeTrace exports the spans through the simulator's Chrome-trace
// exporter: pid is the span's group (cell or job), tid its client track,
// timestamps are host microseconds since the run began, and args carry the
// span and parent ids.
func writeChromeTrace(path string, spans []span) error {
	tr := stats.NewTracer(len(spans) + 1)
	for _, s := range spans {
		tr.Complete(s.Group, s.Track, s.Name, s.Layer, s.Start.Microseconds(), (s.End - s.Start).Microseconds(),
			map[string]int64{"span": int64(s.ID), "parent": int64(s.Parent), "group": int64(s.Group)})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.WriteChromeTrace(w); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// finishTrace closes a traced run: it writes the Chrome trace, reports the
// self time of every layer and checks that they sum to no more than the
// traced wall time (the root span).
func (r *run) finishTrace(rec *recorder, root int) error {
	rec.end(root)
	spans := rec.snapshot()
	var wall float64
	for _, s := range spans {
		if s.ID == root {
			wall = (s.End - s.Start).Seconds()
		}
	}
	self := layerSelf(spans)
	var sum float64
	for _, l := range layers {
		r.set("self_s."+l, self[l])
		sum += self[l]
	}
	for l := range self {
		r.check(slices.Contains(layers, l), "span layer %q is not a known layer", l)
	}
	r.set("trace.wall_s", wall)
	r.check(sum <= wall*(1+1e-9)+1e-6, "layer self times sum to %.6fs, more than the traced wall %.6fs", sum, wall)
	path := fmt.Sprintf("%s/trace-%s-seed%d.json", r.outDir, r.workload, r.seed)
	if err := writeChromeTrace(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(spans), path)
	return nil
}
