package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a p90
// needs at least 100 samples, a p50 at least 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted and
// whether it is reportable, i.e. at least minTail samples lie above its rank.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minTail
}

// median returns the middle value of unsorted samples (0 for none), without
// the tail rule: it summarises per-layer spans and repeated set-ups.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sample is one poller reading of a node: at time at (ns since the phase
// epoch) the node had applied `applied` events of the phase.
type sample struct {
	at      int64
	applied int64
}

// joinWatermarks turns one node's scheduled send times (ns since the phase
// epoch, indexed by the event's per-node ordinal) and its applied-count
// samples (in time order) into per-event apply latencies in ms. Delivery to a
// node is FIFO, so the event with ordinal k is applied at the first sample
// whose count exceeds k. Events no sample covers are returned as missing.
func joinWatermarks(scheduled []int64, samples []sample) (latencies []float64, missing int) {
	latencies = make([]float64, 0, len(scheduled))
	j := 0
	for k, due := range scheduled {
		for j < len(samples) && samples[j].applied <= int64(k) {
			j++
		}
		if j == len(samples) {
			return latencies, len(scheduled) - k
		}
		latencies = append(latencies, float64(samples[j].at-due)/1e6)
	}
	return latencies, 0
}

// windowed splits latencies into equal time windows by their scheduled send
// time (ns, within span) and returns each window's p50 and p90, so that a
// caller can take medians over windows: a short stall on a shared host then
// moves one window, not the result. ok is false when a window has too few
// samples for a reportable p90.
func windowed(due []int64, lat []float64, windows int, span int64) (p50s, p90s []float64, ok bool) {
	byWindow := make([][]float64, windows)
	for i, d := range due {
		w := min(int(d*int64(windows)/span), windows-1)
		byWindow[w] = append(byWindow[w], lat[i])
	}
	p50s = make([]float64, windows)
	p90s = make([]float64, windows)
	ok = true
	for w, l := range byWindow {
		sort.Float64s(l)
		var ok50, ok90 bool
		p50s[w], ok50 = percentile(l, 0.5)
		p90s[w], ok90 = percentile(l, 0.9)
		ok = ok && ok50 && ok90
	}
	return p50s, p90s, ok
}

// skew is the hottest node's share of the events divided by the fair share
// 1/N; 1 is a perfectly balanced fleet.
func skew(perNode []int64) float64 {
	var total, hottest int64
	for _, n := range perNode {
		total += n
		hottest = max(hottest, n)
	}
	if total == 0 {
		return 0
	}
	return float64(hottest) / float64(total) * float64(len(perNode))
}
