// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus scaling sweeps for the extension experiments recorded in
// EXPERIMENTS.md.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks assert the headline numbers (violation counts, risk levels)
// inside the timed loop is avoided; correctness is asserted once before the
// loop so a regression fails the benchmark rather than silently timing wrong
// results.
package privascope_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"privascope"
	"privascope/internal/anonymize"
	"privascope/internal/casestudy"
	"privascope/internal/cluster"
	"privascope/internal/core"
	"privascope/internal/pseudorisk"
	"privascope/internal/risk"
	"privascope/internal/service"
	"privascope/internal/synth"
)

// BenchmarkFig1DataflowModel measures building the doctors'-surgery data-flow
// model of Fig. 1 and rendering its diagrams to DOT.
func BenchmarkFig1DataflowModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		model := casestudy.Surgery()
		if model.DOT() == "" {
			b.Fatal("empty DOT output")
		}
	}
}

// BenchmarkFig2StateVariables measures the privacy state-vector operations of
// Fig. 2: a vocabulary of 5 actors and 6 fields (60 Boolean state variables)
// with sets, gets and change extraction.
func BenchmarkFig2StateVariables(b *testing.B) {
	vocab := core.NewVocabulary(
		[]string{"receptionist", "doctor", "nurse", "administrator", "researcher"},
		[]string{"name", "date_of_birth", "appointment", "medical_issues", "diagnosis", "treatment"},
	)
	if vocab.NumVariables() != 60 {
		b.Fatalf("state variables = %d, want 60", vocab.NumVariables())
	}
	actors := vocab.Actors()
	fields := vocab.Fields()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec := vocab.NewVector()
		prev := vec.Clone()
		for _, actor := range actors {
			for _, field := range fields {
				vec.Set(actor, field, core.HasIdentified)
				vec.Set(actor, field, core.CouldIdentify)
			}
		}
		if vec.CountTrue() != 60 {
			b.Fatal("unexpected count")
		}
		if len(vec.NewlyTrue(prev)) != 60 {
			b.Fatal("unexpected change size")
		}
	}
}

// BenchmarkFig3MedicalServiceLTS measures generating the privacy LTS of the
// full doctors'-surgery model (the Medical Service LTS of Fig. 3 plus the
// research service and the policy-permitted potential reads).
func BenchmarkFig3MedicalServiceLTS(b *testing.B) {
	model := casestudy.Surgery()
	p, err := privascope.Generate(model)
	if err != nil {
		b.Fatal(err)
	}
	if p.Stats().States == 0 {
		b.Fatal("empty LTS")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := privascope.Generate(model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaseStudyADisclosureRisk measures the full case-study IV-A
// pipeline: generate the LTS, assess the patient profile, apply the
// mitigation, and compare.
func BenchmarkCaseStudyADisclosureRisk(b *testing.B) {
	original := casestudy.Surgery()
	mitigated := casestudy.SurgeryWithPolicy(casestudy.MitigatedSurgeryACL())
	profile := casestudy.PatientProfile()

	// Correctness gate: medium before, at most low after.
	before, err := privascope.Assess(original, profile, privascope.AssessOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if before.Assessment.MaxRiskFor(casestudy.ActorAdministrator) != risk.LevelMedium {
		b.Fatalf("before risk = %v, want medium", before.Assessment.MaxRiskFor(casestudy.ActorAdministrator))
	}
	after, err := privascope.Assess(mitigated, profile, privascope.AssessOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if after.Assessment.MaxRiskFor(casestudy.ActorAdministrator) > risk.LevelLow {
		b.Fatalf("after risk = %v, want at most low", after.Assessment.MaxRiskFor(casestudy.ActorAdministrator))
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beforeResult, err := privascope.Assess(original, profile, privascope.AssessOptions{})
		if err != nil {
			b.Fatal(err)
		}
		afterResult, err := privascope.Assess(mitigated, profile, privascope.AssessOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(privascope.CompareAssessments(beforeResult.Assessment, afterResult.Assessment)) == 0 {
			b.Fatal("no risk changes reported")
		}
	}
}

// BenchmarkTable1ValueRisk measures reproducing Table I: the per-record value
// risks and violation counts of the six 2-anonymised records under the
// height / age / age+height visibility progression.
func BenchmarkTable1ValueRisk(b *testing.B) {
	evaluator, err := privascope.NewValueRiskEvaluator(casestudy.TableIRecords(), casestudy.ResearchPolicy())
	if err != nil {
		b.Fatal(err)
	}
	progression := [][]string{{"height"}, {"age"}, {"age", "height"}}
	results, err := evaluator.EvaluateProgression(progression)
	if err != nil {
		b.Fatal(err)
	}
	if results[0].Violations != 0 || results[1].Violations != 2 || results[2].Violations != 4 {
		b.Fatalf("violations = %d/%d/%d, want 0/2/4",
			results[0].Violations, results[1].Violations, results[2].Violations)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evaluator.EvaluateProgression(progression); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4PseudonymisationLTS measures layering the Table I value risks
// onto the metrics-study privacy LTS (the dotted risk transitions of Fig. 4).
func BenchmarkFig4PseudonymisationLTS(b *testing.B) {
	p, err := privascope.GenerateWithOptions(casestudy.Metrics(), privascope.GenerateOptions{
		FlowOrdering:   privascope.OrderDataDriven,
		PotentialReads: privascope.PotentialReadsOff,
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := privascope.PseudonymisationOptions{
		Actor:  casestudy.ActorResearcher,
		Policy: casestudy.ResearchPolicy(),
		Table:  casestudy.TableIRecords(),
	}
	annotation, err := privascope.AnalyzePseudonymisation(p, opts)
	if err != nil {
		b.Fatal(err)
	}
	if annotation.MaxViolations() != 4 {
		b.Fatalf("max violations = %d, want 4", annotation.MaxViolations())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := privascope.AnalyzePseudonymisation(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUtilityMetrics measures the utility comparison of Section III-B
// (means, variances, generalisation loss) between a raw synthetic dataset and
// its 5-anonymised form.
func BenchmarkUtilityMetrics(b *testing.B) {
	raw := synth.HealthRecords(synth.HealthRecordsOptions{Rows: 500, Seed: 9})
	anonymised, _, err := anonymize.KAnonymize(raw, []string{"age", "height"}, 5, anonymize.KAnonymizeOptions{
		InitialWidths: map[string]float64{"age": 5, "height": 5},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anonymize.CompareUtility(raw, anonymised, []string{"weight", "height", "age"}); err != nil {
			b.Fatal(err)
		}
		if _, err := anonymize.GeneralizationLoss(raw, anonymised, []string{"age", "height"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLTSGenerationScaling sweeps the size of synthetic models (the
// state-space growth argument of Section II-B): more services and fields mean
// more state variables and more interleavings. The largest model is
// additionally swept over worker counts, so one run shows both how the state
// space grows and how the parallel engine absorbs it.
func BenchmarkLTSGenerationScaling(b *testing.B) {
	for _, services := range []int{1, 2, 3, 4} {
		spec := synth.ModelSpec{Services: services, FieldsPerService: 3}
		model := synth.Model(spec)
		stats := model.Stats()
		b.Run(fmt.Sprintf("services=%d/vars=%d", services, stats.StateVariables), func(b *testing.B) {
			p, err := privascope.Generate(model)
			if err != nil {
				b.Fatal(err)
			}
			states := p.Stats().States
			b.ReportMetric(float64(states), "states")
			b.ReportMetric(float64(p.Stats().Transitions), "transitions")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := privascope.Generate(model); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportStatesPerSec(b, states)
		})
	}
	largest := synth.Model(synth.ModelSpec{Services: 4, FieldsPerService: 3})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("services=4/workers=%d", workers), func(b *testing.B) {
			benchGenerate(b, largest, privascope.GenerateOptions{Workers: workers})
		})
	}
}

// BenchmarkLTSGenerationParallel sweeps the worker count of the parallel
// exploration engine on a large synthetic model (5 services, 15625 states).
// On multi-core hardware the per-worker sub-benchmarks show the speedup of
// sharded frontier expansion; the generated LTS is byte-identical across all
// of them (see TestParallelGenerationIdenticalDigests).
func BenchmarkLTSGenerationParallel(b *testing.B) {
	model := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchGenerate(b, model, privascope.GenerateOptions{Workers: workers})
		})
	}
}

// benchGenerate times repeated generation of one model under fixed options
// and reports throughput in explored states per second.
func benchGenerate(b *testing.B, model *privascope.Model, opts privascope.GenerateOptions) {
	b.Helper()
	p, err := privascope.GenerateWithOptions(model, opts)
	if err != nil {
		b.Fatal(err)
	}
	states := p.Stats().States
	b.ReportMetric(float64(states), "states")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := privascope.GenerateWithOptions(model, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportStatesPerSec(b, states)
}

// reportStatesPerSec reports generation throughput: states explored per
// second of wall time across all iterations.
func reportStatesPerSec(b *testing.B, statesPerRun int) {
	if seconds := b.Elapsed().Seconds(); seconds > 0 {
		b.ReportMetric(float64(statesPerRun)*float64(b.N)/seconds, "states/sec")
	}
}

// BenchmarkEngineAssessCached contrasts the two assessment paths of the
// public API: "cold" builds a fresh Engine per iteration, so every Assess
// pays fingerprinting + LTS generation + risk analysis + report (the same
// work the context-free Assess pipeline does per call); "cached" reuses one
// warm Engine, so Assess pays fingerprinting + two cache hits + report —
// the per-request cost of a long-lived server session. The gap between the
// two sub-benchmarks is the generate-once/analyse-many win.
func BenchmarkEngineAssessCached(b *testing.B) {
	model := casestudy.Surgery()
	profile := casestudy.PatientProfile()
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine := privascope.MustEngine(privascope.EngineOptions{})
			if _, err := engine.Assess(ctx, model, profile); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		engine := privascope.MustEngine(privascope.EngineOptions{})
		warm, err := engine.Assess(ctx, model, profile)
		if err != nil {
			b.Fatal(err)
		}
		if warm.Assessment.OverallRisk == privascope.RiskNone {
			b.Fatal("warm-up assessment found no risk; the benchmark would time a degenerate path")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Assess(ctx, model, profile); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := engine.Generations(); got != 1 {
			b.Fatalf("cached benchmark ran %d generations, want 1", got)
		}
	})
}

// BenchmarkAssessLargeModel is the design pipeline on the largest benchmark
// model (5 services of 3 fields: 15,625 states, 25,000 transitions): each
// iteration builds a fresh one-worker Engine, assesses one user consenting to
// three of the services and renders the report. One generation worker keeps
// allocs/op independent of the CPU count, so the smoke gate can pin it.
func BenchmarkAssessLargeModel(b *testing.B) {
	model := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	var profile *privascope.UserProfile
	population := synth.Population(model, synth.PopulationOptions{
		Users: 64, Seed: 1, SensitiveFields: synth.SensitiveFieldsOf(model),
	})
	for i := range population {
		if len(population[i].ConsentedServices) == 3 {
			profile = &population[i]
			break
		}
	}
	if profile == nil {
		b.Fatal("no profile consents to three services")
	}
	ctx := context.Background()
	opts := privascope.EngineOptions{Generate: privascope.GenerateOptions{Workers: 1}}
	assess := func() (*privascope.AssessResult, string) {
		res, err := privascope.MustEngine(opts).Assess(ctx, model, *profile)
		if err != nil {
			b.Fatal(err)
		}
		return res, res.Report.Render()
	}
	res, text := assess()
	if s, t := res.PrivacyModel.Graph.StateCount(), res.PrivacyModel.Graph.TransitionCount(); s != 15625 || t != 25000 {
		b.Fatalf("model has %d states and %d transitions, want 15625 and 25000", s, t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, text = assess()
	}
	b.ReportMetric(float64(len(text)), "report-bytes")
}

// BenchmarkRiskAnalysisScaling sweeps the number of simulated users assessed
// against one generated model — the per-user analysis the paper proposes to
// run "with running users of the system, or with simulated users".
func BenchmarkRiskAnalysisScaling(b *testing.B) {
	model := synth.Model(synth.ModelSpec{Services: 3, FieldsPerService: 3})
	p, err := privascope.Generate(model)
	if err != nil {
		b.Fatal(err)
	}
	for _, users := range []int{1, 10, 100} {
		profiles := synth.Population(model, synth.PopulationOptions{
			Users: users, Seed: 21, SensitiveFields: synth.SensitiveFieldsOf(model),
		})
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			analyzer, err := risk.NewAnalyzer(risk.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, profile := range profiles {
					if _, err := analyzer.Analyze(p, profile); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkKAnonymizeScaling sweeps dataset size for the k-anonymiser and the
// value-risk computation used by the pseudonymisation analysis.
func BenchmarkKAnonymizeScaling(b *testing.B) {
	for _, rows := range []int{100, 1000, 5000} {
		raw := synth.HealthRecords(synth.HealthRecordsOptions{Rows: rows, Seed: 3})
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				anonymised, _, err := anonymize.KAnonymize(raw, []string{"age", "height"}, 5, anonymize.KAnonymizeOptions{
					InitialWidths: map[string]float64{"age": 5, "height": 5},
				})
				if err != nil {
					b.Fatal(err)
				}
				evaluator, err := pseudorisk.NewEvaluator(anonymised, casestudy.ResearchPolicy())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := evaluator.Evaluate([]string{"age", "height"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonitorThroughput measures sustained monitor ingestion: GOMAXPROCS
// goroutines each replay the medical-service run for their own user,
// re-registering (an O(1) cache hit) when the script ends. The shards=1
// sub-benchmark serializes every Observe behind a single lock — the old
// monitor design — so the higher shard counts show how lock striping scales
// events/sec with available cores.
func BenchmarkMonitorThroughput(b *testing.B) {
	p, err := privascope.Generate(casestudy.Surgery())
	if err != nil {
		b.Fatal(err)
	}
	baseProfile := casestudy.PatientProfile()
	for _, shards := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			monitor, err := privascope.NewMonitor(p, privascope.MonitorConfig{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			var nextUser atomic.Int64
			register := func(userID string) {
				profile := baseProfile
				profile.ID = userID
				if err := monitor.RegisterUser(profile); err != nil {
					panic(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				userID := fmt.Sprintf("user-%d", nextUser.Add(1))
				register(userID)
				// One consented medical-service run: six events that each
				// match a declared transition without raising alerts — the
				// monitor's hot path.
				script := casestudy.MedicalServiceEvents(userID)
				pos := 0
				for pb.Next() {
					if pos == len(script) {
						register(userID) // reset the cursor; O(1) via the profile cache
						pos = 0
					}
					obs, err := monitor.Observe(script[pos])
					if err != nil {
						panic(err)
					}
					if !obs.Matched {
						panic("consented medical-service event did not match")
					}
					pos++
				}
			})
			b.StopTimer()
			if seconds := b.Elapsed().Seconds(); seconds > 0 {
				b.ReportMetric(float64(b.N)/seconds, "events/sec")
			}
		})
	}
}

// BenchmarkRuntimeMonitorObserve measures the per-event cost of the runtime
// monitor: matching an event against the current state's transitions and
// looking up the pre-computed risk.
func BenchmarkRuntimeMonitorObserve(b *testing.B) {
	p, err := privascope.Generate(casestudy.Surgery())
	if err != nil {
		b.Fatal(err)
	}
	monitor, err := privascope.NewMonitor(p, privascope.MonitorConfig{})
	if err != nil {
		b.Fatal(err)
	}
	profile := casestudy.PatientProfile()
	if err := monitor.RegisterUser(profile); err != nil {
		b.Fatal(err)
	}
	ev := privascope.Event{
		Actor:  casestudy.ActorReceptionist,
		Action: privascope.ActionCollect,
		UserID: profile.ID,
		Fields: []string{casestudy.FieldName, casestudy.FieldDateOfBirth},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := monitor.Observe(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValueRiskPipeline measures the scaled anonrisk pipeline end to
// end on a large synthetic dataset: stream the CSV into a column-oriented
// table with interned cells, then score a four-scenario visibility
// progression plus the re-identification attacker models through a shared
// equivalence-class index. The ingest sub-benchmark reports CSV rows/sec;
// the score sub-benchmarks sweep the worker count (each iteration builds a
// fresh evaluator so class building and scoring are measured, not the
// cache) and report scored rows/sec — rows × scenarios per run. The output
// is byte-identical for every worker count; workers only buy throughput.
func BenchmarkValueRiskPipeline(b *testing.B) {
	const rows = 100_000
	var csvData bytes.Buffer
	cities := []string{"berlin", "paris", "london", "madrid", "rome", "vienna"}
	rng := rand.New(rand.NewSource(11))
	csvData.WriteString("age,height,city,weight\n")
	for i := 0; i < rows; i++ {
		lo := 150 + 10*rng.Intn(4)
		fmt.Fprintf(&csvData, "%d,%d-%d,%s,%d\n",
			20+10*rng.Intn(6), lo, lo+10, cities[rng.Intn(len(cities))], 45+rng.Intn(90))
	}
	raw := csvData.Bytes()

	b.Run("ingest", func(b *testing.B) {
		b.ReportAllocs()
		var rowsRead int
		for i := 0; i < b.N; i++ {
			table, err := anonymize.ReadCSV(bytes.NewReader(raw), nil)
			if err != nil {
				b.Fatal(err)
			}
			rowsRead += table.NumRows()
		}
		b.ReportMetric(float64(rowsRead)/b.Elapsed().Seconds(), "rows/sec")
	})

	table, err := anonymize.ReadCSV(bytes.NewReader(raw), nil)
	if err != nil {
		b.Fatal(err)
	}
	policy := pseudorisk.Policy{TargetField: "weight", Closeness: 5, Confidence: 0.9}
	progression := [][]string{{"age"}, {"height"}, {"city"}, {"age", "height", "city"}}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("score/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evaluator, err := pseudorisk.NewEvaluatorWithOptions(table, policy,
					pseudorisk.EvaluatorOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				results, err := evaluator.EvaluateProgression(progression)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(progression) {
					b.Fatalf("got %d results", len(results))
				}
				if _, err := anonymize.ReidentificationRiskIndexed(
					evaluator.Index(), []string{"age", "height", "city"}, 0.2); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows*len(progression)*b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// BenchmarkClusterIngest measures the cluster ingest plane end to end on the
// server side: pre-encoded binary event frames POSTed into each node's
// /ingest handler, decoded, admitted through the bounded queue and applied
// to the node's monitor by its drain worker. Users are partitioned over the
// consistent-hash ring exactly as the Router would route them; each
// generation replays every user's consented medical-service run once, with
// the untimed gaps re-registering users to reset their cursors (the privacy
// LTS is a DAG, so a finished script cannot be replayed without a reset —
// management-plane work a live fleet does not do per event). The aggregate
// events/sec across nodes is the paper-scale throughput claim; client-side
// frame encoding is measured separately by the codec benchmarks.
func BenchmarkClusterIngest(b *testing.B) {
	p, err := privascope.Generate(casestudy.Surgery())
	if err != nil {
		b.Fatal(err)
	}
	baseProfile := casestudy.PatientProfile()
	const users = 4096
	const frameEvents = 4096
	for _, nodes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			names := make([]string, nodes)
			for i := range names {
				names[i] = fmt.Sprintf("node%d", i)
			}
			ring, err := cluster.NewRing(names, 0)
			if err != nil {
				b.Fatal(err)
			}
			nodeByName := make(map[string]*cluster.Node, nodes)
			var fleet []*cluster.Node
			for _, name := range names {
				// One monitor shard per node: the fleet's parallelism is the
				// node fan-out itself.
				n, err := cluster.NewNode(p, cluster.NodeConfig{
					Name:    name,
					Monitor: privascope.MonitorConfig{Shards: 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer n.Close()
				nodeByName[name] = n
				fleet = append(fleet, n)
			}

			// Partition users over the ring, register them at their owner,
			// and pre-encode each node's generation as interleaved frames.
			profiles := make(map[string][]string, nodes) // node -> user IDs
			for u := 0; u < users; u++ {
				id := fmt.Sprintf("user-%d", u)
				owner := ring.Owner(id)
				profile := baseProfile
				profile.ID = id
				if err := nodeByName[owner].Monitor().RegisterUser(profile); err != nil {
					b.Fatal(err)
				}
				profiles[owner] = append(profiles[owner], id)
			}
			perNodeFrames := make(map[string][][]byte, nodes)
			eventsPerGen := 0
			for name, ids := range profiles {
				scripts := make([][]service.Event, len(ids))
				for i, id := range ids {
					scripts[i] = casestudy.MedicalServiceEvents(id)
				}
				// Round-robin across the node's users, like live traffic.
				var stream []service.Event
				for pos := 0; ; pos++ {
					appended := false
					for _, script := range scripts {
						if pos < len(script) {
							stream = append(stream, script[pos])
							appended = true
						}
					}
					if !appended {
						break
					}
				}
				eventsPerGen += len(stream)
				for start := 0; start < len(stream); start += frameEvents {
					end := min(start+frameEvents, len(stream))
					frame, err := cluster.EncodeFrame(stream[start:end])
					if err != nil {
						b.Fatal(err)
					}
					perNodeFrames[name] = append(perNodeFrames[name], frame)
				}
			}

			ctx := context.Background()
			runGeneration := func() {
				for name, frames := range perNodeFrames {
					node := nodeByName[name]
					for _, body := range frames {
						req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
						rec := httptest.NewRecorder()
						node.Handler().ServeHTTP(rec, req)
						if rec.Code != http.StatusAccepted {
							b.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
						}
					}
				}
				for _, n := range fleet {
					if err := n.Quiesce(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
			resetCursors := func() {
				for name, ids := range profiles {
					m := nodeByName[name].Monitor()
					for _, id := range ids {
						profile := baseProfile
						profile.ID = id
						if err := m.RegisterUser(profile); err != nil {
							b.Fatal(err)
						}
					}
				}
			}

			b.ReportAllocs()
			b.ResetTimer()
			total := 0
			for total < b.N {
				runGeneration()
				total += eventsPerGen
				b.StopTimer()
				resetCursors()
				b.StartTimer()
			}
			b.StopTimer()
			var stats privascope.MonitorIngestStats
			for _, n := range fleet {
				stats.Merge(n.Stats().Ingest)
			}
			if stats.Events != total || stats.Matched != total {
				b.Fatalf("fleet ingested %d events, matched %d; want %d of each (stats %+v)",
					stats.Events, stats.Matched, total, stats)
			}
			if seconds := b.Elapsed().Seconds(); seconds > 0 {
				b.ReportMetric(float64(total)/seconds, "events/sec")
			}
		})
	}
}
