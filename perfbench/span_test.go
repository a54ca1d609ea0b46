package main

import (
	"math"
	"testing"
	"time"
)

func sp(id, parent int, layer string, start, end int) span {
	return span{ID: id, Parent: parent, Layer: layer, Start: time.Duration(start) * time.Second, End: time.Duration(end) * time.Second}
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestSelfTimeNested checks self time is span time minus child-span time
// when nothing runs concurrently.
func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		sp(1, 0, "bench", 0, 10),
		sp(2, 1, "workloads", 1, 3),
		sp(3, 1, "experiments", 4, 9),
		sp(4, 3, "sim", 5, 7),
	}
	want := []float64{10 - 2 - 5, 2, 5 - 2, 2}
	got := selfTimes(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("span %d self = %v, want %v", spans[i].ID, got[i], want[i])
		}
	}
	if s := sumOf(got); math.Abs(s-10) > 1e-9 {
		t.Errorf("self times sum to %v, want the root's 10s", s)
	}
}

// TestSelfTimeConcurrent checks that two clients' overlapping spans split
// the overlap, so self times still sum to the covered wall time.
func TestSelfTimeConcurrent(t *testing.T) {
	spans := []span{
		sp(1, 0, "bench", 0, 10),
		sp(2, 1, "jobs", 0, 6),   // client 0
		sp(3, 1, "jobs", 2, 10),  // client 1
		sp(4, 3, "fabric", 8, 9), // child of client 1's job
	}
	got := selfTimes(spans)
	// [0,2) span 2 alone; [2,6) spans 2 and 3 share; [6,8) span 3;
	// [8,9) span 4; [9,10) span 3.
	want := []float64{0, 2 + 2, 2 + 2 + 1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("span %d self = %v, want %v", spans[i].ID, got[i], want[i])
		}
	}
	if s := sumOf(got); math.Abs(s-10) > 1e-9 {
		t.Errorf("self times sum to %v, want 10", s)
	}
	byLayer := layerSelf(spans)
	if math.Abs(byLayer["jobs"]-9) > 1e-9 || math.Abs(byLayer["fabric"]-1) > 1e-9 {
		t.Errorf("layer self = %v, want jobs 9 fabric 1", byLayer)
	}
}

// TestRecorderNil checks an untraced run's nil recorder records nothing.
func TestRecorderNil(t *testing.T) {
	var r *recorder
	id := r.begin(0, "bench", "x", 0, 0)
	r.end(id)
	if id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
}

func TestRecorderSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin(0, "bench", "root", 0, 0)
	child := r.begin(root, "sim", "child", 7, 1)
	open := r.begin(root, "sim", "never closed", 0, 0)
	r.end(child)
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || open == 0 {
		t.Fatalf("snapshot kept %d spans, want the 2 closed ones", len(spans))
	}
	if spans[1].Parent != root || spans[1].Group != 7 || spans[1].Track != 1 || spans[1].End < spans[1].Start {
		t.Errorf("child span = %+v", spans[1])
	}
}
