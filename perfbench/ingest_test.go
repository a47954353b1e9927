package main

import (
	"context"
	"testing"
)

// TestIngestPhasesMatchOfflineMonitor runs small open- and closed-loop phases,
// with the /alerts reader and with tracing, and checks that every fleet
// matched its offline replay and lost nothing.
func TestIngestPhasesMatchOfflineMonitor(t *testing.T) {
	small := ingestAlerting
	small.refRate = 20000
	ctx := context.Background()
	for _, traced := range []bool{false, true} {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		run, err := newIngestRun(small, 7, tr)
		if err != nil {
			t.Fatal(err)
		}
		res := &result{metrics: make(map[string]float64), correct: true}
		for _, rate := range []float64{small.refRate, 0} {
			in, err := run.up(ctx, 4000)
			if err != nil {
				t.Fatal(err)
			}
			in.read = true
			if tr != nil {
				tr.on.Store(true)
			}
			pr := run.phase(ctx, in, rate, 2, tr)
			if tr != nil {
				tr.on.Store(false)
			}
			if pr.missing != 0 || pr.sendErrs != 0 || pr.readErrs != 0 || len(pr.lat) != 4000 {
				t.Errorf("rate %v: %d missing, %d send errors, %d read errors, %d latencies of 4000",
					rate, pr.missing, pr.sendErrs, pr.readErrs, len(pr.lat))
			}
			if rate > 0 && len(pr.reads) == 0 {
				t.Errorf("rate %v: the reader made no /alerts read", rate)
			}
			if err := run.retire(in, pr.sent); err != nil {
				t.Fatal(err)
			}
			run.down(ctx, res)
		}
		if !res.correct || res.failed != 0 {
			t.Errorf("traced %v: correct %v, failed %d: %v", traced, res.correct, res.failed, res.notes)
		}
		if traced && len(tr.durations("cluster.http.post")) == 0 {
			t.Error("the traced fleet recorded no cluster.http.post spans")
		}
	}
}
