// Benchmarks and acceptance tests for the internal/explore subsystem: the
// arena-backed frontier allocator and incremental regeneration by relabelling
// the previous model.

package privascope_test

import (
	"context"
	"testing"

	"privascope"
	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/synth"
)

// TestExploreAllocReduction pins the headline win of the arena/slab frontier
// allocator: generating the BenchmarkLTSGenerationParallel model (5 services,
// 15625 states) must allocate at least 5x less than the pre-explore engine.
// BENCH_6.json records 705,864 allocs/op for workers=1 on this exact model;
// the arena-backed driver has to stay under a fifth of that.
func TestExploreAllocReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement generates a 15625-state model")
	}
	model := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	const baselineAllocs = 705864 // BENCH_6.json, BenchmarkLTSGenerationParallel/workers=1
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := privascope.GenerateWithOptions(model, privascope.GenerateOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if max := float64(baselineAllocs) / 5; allocs > max {
		t.Fatalf("generation allocated %.0f objects, want <= %.0f (5x below the %d pre-arena baseline)",
			allocs, max, baselineAllocs)
	}
	t.Logf("allocs/generation = %.0f (baseline %d, reduction %.1fx)",
		allocs, baselineAllocs, float64(baselineAllocs)/allocs)
}

// BenchmarkExploreIncremental compares a cold generation against the
// metadata relabel on a 15625-state model. A metadata edit (flow purpose
// relabel) leaves the state space, edge set and vectors provably unchanged,
// so regeneration shares the previous model and only remaps labels. The cold
// run generates the read-policy edit (one reader revoked), which is also what
// a policy delta costs: it falls back to cold generation.
func BenchmarkExploreIncremental(b *testing.B) {
	before := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	afterMeta := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	afterMeta.Flows[0].Purpose = "relabelled"
	afterPolicy := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	afterPolicy.Policy = afterPolicy.Policy.(*accesscontrol.ACL).WithoutActor("maintenance", "store0")

	gen := core.NewGenerator(core.Options{Workers: 1})
	ctx := context.Background()
	prev, err := gen.GenerateContext(ctx, before)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gen.GenerateContext(ctx, afterPolicy); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay-metadata", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, report, err := gen.RegenerateContext(ctx, prev, afterMeta)
			if err != nil {
				b.Fatal(err)
			}
			if report.Fallback {
				b.Fatalf("relabel fell back: %s", report.FallbackReason)
			}
		}
	})
}
