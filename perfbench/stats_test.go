package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // ranks 91..100 lie beyond
		{99, 0.9, 90, false}, // only 9 beyond rank 90
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestJoinWatermarks(t *testing.T) {
	// Five events due at 0, 1, 2, 3 and 4 ms; the node is seen to have
	// applied 0, 2, 2 and then 4 events.
	ms := int64(1e6)
	scheduled := []int64{0, 1 * ms, 2 * ms, 3 * ms, 4 * ms}
	samples := []sample{{at: 1 * ms, applied: 0}, {at: 3 * ms, applied: 2}, {at: 5 * ms, applied: 2}, {at: 8 * ms, applied: 4}}
	lat, missing := joinWatermarks(scheduled, samples)
	want := []float64{3, 2, 6, 5} // ordinals 0,1 at 3 ms; 2,3 at 8 ms
	if missing != 1 {
		t.Errorf("missing = %d, want 1 (the fifth event is never covered)", missing)
	}
	if len(lat) != len(want) {
		t.Fatalf("latencies = %v, want %v", lat, want)
	}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("latency of ordinal %d = %v ms, want %v", i, lat[i], want[i])
		}
	}
}

func TestJoinWatermarksAllCovered(t *testing.T) {
	lat, missing := joinWatermarks([]int64{0, 0}, []sample{{at: 2e6, applied: 2}})
	if missing != 0 || len(lat) != 2 || lat[0] != 2 || lat[1] != 2 {
		t.Errorf("got %v, %d missing; want [2 2], 0", lat, missing)
	}
}

func TestWindowedMediansIgnoreOneStalledWindow(t *testing.T) {
	// Three one-second windows of 100 samples each: latencies 1..100 ms in
	// the first, 101..200 in the second and a stall of 1000 ms in the third.
	var due []int64
	var lat []float64
	for w := 0; w < 3; w++ {
		for i := 1; i <= 100; i++ {
			due = append(due, int64(w)*1e9+int64(i))
			v := float64(w*100 + i)
			if w == 2 {
				v = 1000
			}
			lat = append(lat, v)
		}
	}
	p50s, p90s, ok := windowed(due, lat, 3, 3e9)
	if p50, p90 := median(p50s), median(p90s); !ok || p50 != 150 || p90 != 190 {
		t.Errorf("windowed medians = p50 %v, p90 %v, ok %v; want 150, 190, true", p50, p90, ok)
	}
	if _, _, ok := windowed(due[:150], lat[:150], 3, 3e9); ok {
		t.Error("windows with fewer than 100 samples must not report a p90")
	}
}

func TestSkew(t *testing.T) {
	for _, c := range []struct {
		perNode []int64
		want    float64
	}{
		{[]int64{50, 50}, 1},
		{[]int64{76, 24}, 1.52},
		{[]int64{46, 18, 18, 18}, 1.84},
		{[]int64{0, 0}, 0},
	} {
		if got := skew(c.perNode); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("skew(%v) = %v, want %v", c.perNode, got, c.want)
		}
	}
}

// TestMetricsDocumented checks that README.md maps every per-layer metric of
// BENCHMARK.json to the end-to-end metric it should move.
func TestMetricsDocumented(t *testing.T) {
	spec, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !strings.Contains(string(readme), "| `"+m.Name+"` |") {
			t.Errorf("README.md has no table row for %s", m.Name)
		}
	}
}
