package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"privascope"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/report"
	"privascope/internal/risk"
	"privascope/internal/synth"
)

// The design-cold model is the largest benchmark model: 5 services of 3
// fields give 15,625 states and 25,000 transitions, so generation, compile,
// analysis and rendering all do real work.
const (
	designServices    = 5
	designFields      = 3
	designStates      = 15625
	designTransitions = 25000
	designConsents    = 3
	// designMinRequests keeps the p90 reportable (ten samples beyond it)
	// when a slow host completes fewer requests in the measured time.
	designMinRequests = 100
)

// designInput is what one design-cold run sends: the model as the JSON
// bytes an analyst would submit, one seeded user profile, and the report the
// pipeline must produce for them.
type designInput struct {
	data    []byte
	profile risk.UserProfile
	want    string
}

// assessRequest is one design-cold request through the public entry points:
// JSON bytes → dataflow.Unmarshal → a fresh Engine's Assess → Render.
func assessRequest(ctx context.Context, in *designInput, opts privascope.EngineOptions) (string, *core.PrivacyLTS, error) {
	m, err := dataflow.Unmarshal(in.data)
	if err != nil {
		return "", nil, err
	}
	e, err := privascope.NewEngine(opts)
	if err != nil {
		return "", nil, err
	}
	res, err := e.Assess(ctx, m, in.profile)
	if err != nil {
		return "", nil, err
	}
	return res.Report.Render(), res.PrivacyModel, nil
}

// setupDesign generates the run's inputs from the seed and makes the first
// request twice, with one generation worker and with the default engine:
// the two reports must be byte-identical, and the model must have its known
// size. The pair doubles as the warm-up before timing.
func setupDesign(ctx context.Context, seed int64) (*designInput, error) {
	m := synth.Model(synth.ModelSpec{Services: designServices, FieldsPerService: designFields, Seed: seed})
	data, err := dataflow.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("marshalling the model: %w", err)
	}
	// The model's services are structural copies, so any profile consenting
	// to designConsents of them costs the same to assess: the seed varies
	// which services and the sensitivities, not the amount of work.
	var profile *risk.UserProfile
	population := synth.Population(m, synth.PopulationOptions{
		Users: 64, Seed: seed, SensitiveFields: synth.SensitiveFieldsOf(m),
	})
	for i := range population {
		if len(population[i].ConsentedServices) == designConsents {
			profile = &population[i]
			break
		}
	}
	if profile == nil {
		return nil, fmt.Errorf("no profile of seed %d consents to %d services", seed, designConsents)
	}
	in := &designInput{data: data, profile: *profile}
	want, p, err := assessRequest(ctx, in, privascope.EngineOptions{})
	if err != nil {
		return nil, err
	}
	if s, t := p.Graph.StateCount(), p.Graph.TransitionCount(); s != designStates || t != designTransitions {
		return nil, fmt.Errorf("check: model has %d states and %d transitions, want %d and %d", s, t, designStates, designTransitions)
	}
	one, _, err := assessRequest(ctx, in, privascope.EngineOptions{Generate: privascope.GenerateOptions{Workers: 1}})
	if err != nil {
		return nil, err
	}
	if one != want {
		return nil, fmt.Errorf("check: report with 1 worker (%d bytes) differs from the default engine's (%d bytes)", len(one), len(want))
	}
	in.want = want
	return in, nil
}

// runDesign runs the closed loop: one client, the next request as soon as the
// previous report is rendered, for the measured time.
func runDesign(ctx context.Context, cfg runConfig, res *result) error {
	var in *designInput
	err := res.timeSetup(func() error {
		var err error
		in, err = setupDesign(ctx, cfg.seed)
		return err
	}, nil)
	if err != nil {
		return err
	}
	measure := cfg.seconds
	if cfg.trace {
		// The traced run spends half its time on the untraced path, so the
		// tracing overhead and the layer residual come from one process.
		measure /= 2
	}
	lat, rate := designLoop(ctx, in, measure, res, func(ctx context.Context) (string, error) {
		out, _, err := assessRequest(ctx, in, privascope.EngineOptions{})
		return out, err
	})
	if !cfg.trace {
		p50, ok50 := percentile(lat, 0.5)
		p90, ok90 := percentile(lat, 0.9)
		if !ok50 || !ok90 {
			return fmt.Errorf("only %d requests completed; too few for a p90", len(lat))
		}
		res.set("latency_p50_ms", p50)
		res.set("latency_p90_ms", p90)
		res.set("throughput_per_s", rate)
		res.set("heap_mb", liveHeapMiB(in))
		return nil
	}

	t := newTracer()
	t.on.Store(true)
	var counts designCounts
	traced, _ := designLoop(ctx, in, measure, res, func(ctx context.Context) (string, error) {
		return tracedAssess(ctx, t, in, &counts)
	})
	untracedP50, tracedP50 := median(lat), median(traced)
	layers := 0.0
	for _, name := range designLayers {
		m := median(t.durations(name))
		res.set(name+"_ms", m)
		layers += m
	}
	res.set("engine.residual_ms", untracedP50-layers)
	res.set("trace.overhead_pct", (tracedP50-untracedP50)/untracedP50*100)
	res.set("core.generate_allocs", median(counts.generate))
	res.set("risk.analyze_allocs", median(counts.analyze))
	res.set("core.states", float64(counts.states))
	res.set("core.transitions", float64(counts.transitions))
	res.set("lts.labels", float64(counts.labels))
	res.set("risk.findings", float64(counts.findings))
	res.set("report.bytes", float64(len(in.want)))
	res.spans = t
	return nil
}

// designLoop makes requests back to back for the measured time (and at least
// designMinRequests), checking every report against the expected bytes. It
// returns the sorted request latencies in ms and the completed requests per
// second.
func designLoop(ctx context.Context, in *designInput, seconds float64, res *result, request func(context.Context) (string, error)) ([]float64, float64) {
	var lat []float64
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) || len(lat) < designMinRequests {
		t0 := time.Now()
		out, err := request(ctx)
		elapsed := time.Since(t0)
		res.attempted++
		switch {
		case err != nil:
			res.fail("request %d: %v", res.attempted, err)
		case out != in.want:
			res.failed++
			res.wrong("request %d: report (%d bytes) differs from the first request's (%d bytes)", res.attempted, len(out), len(in.want))
		default:
			lat = append(lat, float64(elapsed)/1e6)
		}
	}
	rate := float64(len(lat)) / time.Since(start).Seconds()
	sort.Float64s(lat)
	return lat, rate
}

// designLayers are the per-layer spans of a decomposed design-cold request,
// in call order.
var designLayers = []string{
	"dataflow.unmarshal", "dataflow.fingerprint", "core.generate", "lts.compile",
	"core.view", "risk.analyze", "report.build", "report.render",
}

// designCounts collects the allocation counts and model sizes the traced design
// requests observe.
type designCounts struct {
	generate, analyze                     []float64
	states, transitions, labels, findings int
}

// tracedAssess makes the same request as assessRequest through the public
// calls Engine.Assess is made of, with one span around each.
func tracedAssess(ctx context.Context, t *tracer, in *designInput, allocs *designCounts) (string, error) {
	trace := t.newID()
	step := func(name string, f func() error) error {
		start := t.now()
		err := f()
		t.record(span{Name: name, Trace: trace, ID: t.newID(), Parent: trace, Start: start, End: t.now()})
		return err
	}
	begin := t.now()
	var (
		m          *dataflow.Model
		p          *core.PrivacyLTS
		assessment *risk.Assessment
		rep        *report.Report
		out        string
	)
	err := step("dataflow.unmarshal", func() (err error) {
		m, err = dataflow.Unmarshal(in.data)
		return err
	})
	if err == nil {
		err = step("dataflow.fingerprint", func() error {
			_, err := dataflow.Fingerprint(m)
			return err
		})
	}
	if err == nil {
		err = step("core.generate", func() (err error) {
			before := mallocs()
			p, err = core.GenerateWithOptionsContext(ctx, m, core.Options{})
			allocs.generate = append(allocs.generate, float64(mallocs()-before))
			return err
		})
	}
	if err == nil {
		_ = step("lts.compile", func() error {
			c := p.Graph.Compiled()
			allocs.labels = c.NumLabels()
			return nil
		})
		_ = step("core.view", func() error { p.Compiled(); return nil })
		allocs.states, allocs.transitions = p.Graph.StateCount(), p.Graph.TransitionCount()
		err = step("risk.analyze", func() error {
			analyzer, err := risk.NewAnalyzer(risk.Config{})
			if err != nil {
				return err
			}
			cache, err := risk.NewAssessmentCache(analyzer)
			if err != nil {
				return err
			}
			before := mallocs()
			assessment, err = cache.AnalyzeContext(ctx, p, in.profile)
			allocs.analyze = append(allocs.analyze, float64(mallocs()-before))
			return err
		})
	}
	if err == nil {
		allocs.findings = len(assessment.Findings)
		_ = step("report.build", func() error {
			rep = report.NewReport("Privacy risk assessment: " + m.Name)
			for _, s := range report.ModelSummary(p).Sections() {
				rep.AddTable(s.Title, s.Body, s.Table)
			}
			for _, s := range report.DisclosureAssessment(assessment).Sections() {
				rep.AddTable(s.Title, s.Body, s.Table)
			}
			return nil
		})
		_ = step("report.render", func() error { out = rep.Render(); return nil })
	}
	t.record(span{Name: "design.request", Trace: trace, ID: trace, Start: begin, End: t.now()})
	return out, err
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMiB forces collections and returns the live heap, keeping the
// workload's long-lived state reachable until after the measurement. The
// second collection empties the sync.Pool victim caches, whose buffers (a
// JSON encoder's, sized by the last /alerts response) would otherwise count
// as live for one cycle.
func liveHeapMiB(keep any) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}
