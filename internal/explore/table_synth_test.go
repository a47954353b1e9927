package explore_test

import (
	"testing"

	"privascope/internal/core"
	"privascope/internal/explore"
	"privascope/internal/synth"
)

// TestStateTableSpreadsSynthStates builds the state table over the state
// vectors of the largest benchmark model (15,625 states) and checks that a
// lookup walks at most a couple of slots on average. The vectors differ in
// scattered bits of a few words, the pattern that clusters a hash whose low
// bits only see the low bits of each word.
func TestStateTableSpreadsSynthStates(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 15,625-state model")
	}
	p, err := core.Generate(synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3}))
	if err != nil {
		t.Fatal(err)
	}
	ids := p.Graph.StateIDs()
	if len(ids) != 15625 {
		t.Fatalf("model has %d states, want 15625", len(ids))
	}
	w := p.Vocab.WordsPerVector()
	slab := make([]uint64, 0, len(ids)*w)
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		v, ok := p.Vector(id)
		if !ok {
			t.Fatalf("state %s has no vector", id)
		}
		if k := v.Key(); !seen[k] {
			seen[k] = true
			slab = append(slab, v.Words()...)
		}
	}
	if d := explore.MeanDisplacement(slab, w); d > 2 {
		t.Fatalf("mean slot displacement over %d state vectors is %.1f, want at most 2", len(seen), d)
	}
}
