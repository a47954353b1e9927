package privascope_test

import (
	"context"
	"encoding/json"
	"testing"

	"privascope"
	"privascope/internal/accesscontrol"
	"privascope/internal/casestudy"
)

// TestEngineIncrementalRegeneration: an incremental engine fed a sequence of
// near-identical models must relabel its previous model for the
// metadata-only edit (IncrementalHits counts it), fall back without a hit
// for the read-grant revocation, and still produce exactly the assessment
// and report a cold engine produces for each model.
func TestEngineIncrementalRegeneration(t *testing.T) {
	ctx := context.Background()
	profile := casestudy.PatientProfile()

	relabelled := casestudy.Surgery()
	relabelled.Flows[0].Purpose = "relabelled purpose"
	revoked := casestudy.Surgery()
	revoked.Policy = revoked.Policy.(*accesscontrol.ACL).WithoutActor(
		casestudy.ActorResearcher, casestudy.StoreAnonEHR)

	inc := privascope.MustEngine(privascope.EngineOptions{Incremental: true})
	if _, err := inc.Assess(ctx, casestudy.Surgery(), profile); err != nil {
		t.Fatal(err)
	}
	if got := inc.IncrementalHits(); got != 0 {
		t.Fatalf("IncrementalHits after first (seedless) generation = %d, want 0", got)
	}
	cold := privascope.MustEngine(privascope.EngineOptions{})
	for _, step := range []struct {
		name     string
		model    *privascope.Model
		wantHits int64
	}{
		{"purpose relabel", relabelled, 1},
		{"read-grant revocation", revoked, 1},
	} {
		got, err := inc.Assess(ctx, step.model, profile)
		if err != nil {
			t.Fatal(err)
		}
		if hits := inc.IncrementalHits(); hits != step.wantHits {
			t.Fatalf("%s: IncrementalHits = %d, want %d", step.name, hits, step.wantHits)
		}
		want, err := cold.Assess(ctx, step.model, profile)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := mustJSON(t, got.Assessment), mustJSON(t, want.Assessment); g != w {
			t.Fatalf("%s: incremental assessment differs from cold assessment:\n%s\nvs\n%s", step.name, g, w)
		}
		if g, w := mustJSON(t, got.Report), mustJSON(t, want.Report); g != w {
			t.Fatalf("%s: incremental report differs from cold report:\n%s\nvs\n%s", step.name, g, w)
		}
		if g, w := mustJSON(t, got.PrivacyModel), mustJSON(t, want.PrivacyModel); g != w {
			t.Fatalf("%s: incremental privacy model JSON differs from cold generation", step.name)
		}
	}
	if gens := inc.Generations(); gens != 3 {
		t.Fatalf("Generations = %d, want 3 (every model generated, one via relabel)", gens)
	}
}

// TestEngineIncrementalStructuralChange: a structural edit (different case
// study) must not poison an incremental engine — it falls back to a cold
// generation without counting a hit.
func TestEngineIncrementalStructuralChange(t *testing.T) {
	ctx := context.Background()
	inc := privascope.MustEngine(privascope.EngineOptions{Incremental: true})
	if _, err := inc.Model(ctx, casestudy.Surgery()); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Model(ctx, casestudy.Metrics()); err != nil {
		t.Fatal(err)
	}
	if got := inc.IncrementalHits(); got != 0 {
		t.Fatalf("IncrementalHits across structurally different models = %d, want 0", got)
	}

	cold := privascope.MustEngine(privascope.EngineOptions{})
	want, err := cold.Model(ctx, casestudy.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.Model(ctx, casestudy.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Fatal("fallback generation differs from cold generation")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}
