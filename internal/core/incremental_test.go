package core_test

import (
	"context"
	"testing"
	"time"

	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/synth"
)

// regenCase runs one cold generation of before, regenerates with the mutated
// after-model, and cross-checks the result against a cold generation of the
// same after-model.
func regenCase(t *testing.T, opts core.Options, before, after *dataflow.Model) (*core.PrivacyLTS, *core.ExploreReport) {
	t.Helper()
	gen := core.NewGenerator(opts)
	ctx := context.Background()
	prev, err := gen.GenerateContext(ctx, before)
	if err != nil {
		t.Fatalf("cold generate (before): %v", err)
	}
	got, report, err := gen.RegenerateContext(ctx, prev, after)
	if err != nil {
		t.Fatalf("regenerate: %v", err)
	}
	cold, err := core.GenerateWithOptions(after, opts)
	if err != nil {
		t.Fatalf("cold generate (after): %v", err)
	}
	if gd, cd := ltsDigest(t, got), ltsDigest(t, cold); gd != cd {
		t.Fatalf("regenerated digest %s != cold digest %s (fallback=%v reason=%q)",
			gd, cd, report.Fallback, report.FallbackReason)
	}
	return got, report
}

// TestRegenerateMetadataDelta: a purpose relabel never touches the state
// space; the previous model is reused while the labels come from the new
// compilation, so the output matches a cold generation of the relabelled
// model (not the old one).
func TestRegenerateMetadataDelta(t *testing.T) {
	before := synth.Model(synth.ModelSpec{})
	after := synth.Model(synth.ModelSpec{})
	after.Flows[0].Purpose = "relabelled-collect"

	opts := core.Options{PotentialReads: core.PotentialReadsTerminal, Workers: 1}
	lts, report := regenCase(t, opts, before, after)
	if report.Fallback || report.DeltaKind != "metadata" {
		t.Fatalf("report fallback=%v kind=%q, want a metadata relabel", report.Fallback, report.DeltaKind)
	}
	found := false
	for _, tr := range lts.Graph.Transitions() {
		if l, ok := tr.Label.(*core.TransitionLabel); ok && l.Purpose == "relabelled-collect" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("relabelled LTS does not carry the new purpose")
	}
}

// TestRegenerateUnsafeDeltaFallsBack: structural changes — here a new actor —
// cannot be proven relabel-safe, so regeneration must fall back to a full cold
// run and say why.
func TestRegenerateUnsafeDeltaFallsBack(t *testing.T) {
	before := synth.Model(synth.ModelSpec{})
	after := synth.Model(synth.ModelSpec{})
	after.Actors = append(after.Actors, dataflow.Actor{ID: "zz-extra", Name: "Extra"})

	opts := core.Options{PotentialReads: core.PotentialReadsTerminal, Workers: 1}
	_, report := regenCase(t, opts, before, after)
	if !report.Fallback {
		t.Fatal("report fallback=false, want a full fallback")
	}
	if report.DeltaKind != "unsafe" || report.FallbackReason == "" {
		t.Fatalf("report kind=%q reason=%q, want unsafe with a reason", report.DeltaKind, report.FallbackReason)
	}
}

// TestRegenerateWallClock: the acceptance bound of incremental regeneration —
// re-running after a metadata-only edit of a 15625-state model must cost a
// small fraction of the cold generation. The structural guarantee (no
// fallback, so nothing re-explored) is asserted exactly; the wall-clock
// ratio is asserted at 50% to stay robust under CI noise (see
// BenchmarkExploreIncremental for the measured ratio).
func TestRegenerateWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 15625-state model several times")
	}
	before := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	after := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	after.Flows[0].Purpose = "relabelled"

	gen := core.NewGenerator(core.Options{Workers: 1})
	ctx := context.Background()
	prev, err := gen.GenerateContext(ctx, before)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := gen.GenerateContext(ctx, after); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	start = time.Now()
	_, report, err := gen.RegenerateContext(ctx, prev, after)
	if err != nil {
		t.Fatal(err)
	}
	relabel := time.Since(start)
	if report.Fallback {
		t.Fatalf("relabel fell back: %s", report.FallbackReason)
	}
	if ratio := float64(relabel) / float64(cold); ratio > 0.5 {
		t.Fatalf("relabel took %v = %.0f%% of the %v cold generation, want well under 50%%",
			relabel, ratio*100, cold)
	}
	t.Logf("cold = %v, relabel = %v (%.1f%%)", cold, relabel, float64(relabel)/float64(cold)*100)
}

// TestRegenerateWithoutSeed: nil previous generation regenerates cold.
func TestRegenerateWithoutSeed(t *testing.T) {
	m := synth.Model(synth.ModelSpec{})
	gen := core.NewGenerator(core.Options{})
	got, report, err := gen.RegenerateContext(context.Background(), nil, m)
	if err != nil {
		t.Fatalf("regenerate: %v", err)
	}
	if !report.Fallback {
		t.Fatal("report fallback=false, want a full fallback")
	}
	cold, err := core.GenerateWithOptions(m, core.Options{})
	if err != nil {
		t.Fatalf("cold generate: %v", err)
	}
	if gd, cd := ltsDigest(t, got), ltsDigest(t, cold); gd != cd {
		t.Fatalf("fallback digest %s != cold digest %s", gd, cd)
	}
}
