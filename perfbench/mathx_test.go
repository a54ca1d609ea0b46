package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins the cut points to what Python's
// statistics.quantiles(xs, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 4}, [3]float64{1.75, 5.5, 9.25}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v", tc.xs, q1, q2, q3, ok, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should report !ok")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.9, 46}, {0.25, 20}, {0.1, 14},
	} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// TestTailPercentile checks the rule that the reported tail percentile
// keeps at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestIntervalSecs checks time metrics leave out the stolen share, and
// that joined intervals weight their shares by length.
func TestIntervalSecs(t *testing.T) {
	a := interval{wall: 2, stolen: 0.5}
	b := interval{wall: 6, stolen: 0.1}
	if got := a.secs(); !near(got, 1) {
		t.Errorf("secs = %v, want 1", got)
	}
	ab := a.plus(b)
	if !near(ab.wall, 8) || !near(ab.stolen, (1+0.6)/8) || !near(ab.secs(), a.secs()+b.secs()) {
		t.Errorf("plus = %+v (secs %v), want wall 8, secs %v", ab, ab.secs(), a.secs()+b.secs())
	}
}
