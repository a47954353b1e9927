package risk

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"privascope/internal/core"
	"privascope/internal/lts"
)

// Finding is one assessed disclosure event: a transition of the privacy LTS
// through which a non-allowed actor identifies (or becomes able to identify)
// personal data the user is sensitive about.
type Finding struct {
	// Transition is the LTS transition the finding refers to.
	Transition lts.Transition
	// Action, Datastore and Fields are copied from the transition label for
	// convenience.
	Action    core.Action
	Datastore string
	Fields    []string
	// Actor is the non-allowed actor put in a position to identify (or who
	// identifies) the sensitive data. The paper attaches the risk to the
	// disclosure event affecting this actor.
	Actor string
	// PerformedBy is the actor performing the transition; for potential
	// reads it equals Actor, for declared flows it may be an allowed actor
	// whose action exposes data to Actor (for example a doctor writing the
	// diagnosis into a store the administrator may read).
	PerformedBy string
	// Potential marks findings on policy-permitted reads that no declared
	// flow performs.
	Potential bool
	// Service is the (non-consented) service the transition belongs to, if
	// any.
	Service string
	// DrivingField is the field whose sensitivity determines the impact.
	DrivingField string
	// Impact is the maximum sensitivity change the transition causes.
	Impact      float64
	ImpactLevel Level
	// Likelihood is the summed probability of the scenarios under which the
	// event occurs; zero for events within consented services.
	Likelihood      float64
	LikelihoodLevel Level
	// Scenarios lists the scenario names contributing to the likelihood.
	// The slice is shared across findings with the same likelihood class
	// (like the Findings of a cached Assessment, it must be treated as
	// immutable).
	Scenarios []string
	// Risk is the combined risk level from the matrix.
	Risk Level
	// Explanation is a human-readable account of the finding.
	Explanation string
	// Mitigation is a suggested change that would remove or reduce the risk.
	Mitigation string
}

// Assessment is the result of analysing one user profile against a privacy
// LTS.
type Assessment struct {
	// Profile is the analysed user profile.
	Profile UserProfile
	// AllowedActors took part in at least one consented service.
	AllowedActors []string
	// NonAllowedActors are every other actor of the model.
	NonAllowedActors []string
	// Findings are the assessed disclosure events, sorted by decreasing risk
	// then impact.
	Findings []Finding
	// OverallRisk is the maximum risk across findings (LevelNone if there
	// are none).
	OverallRisk Level
}

// FindingsFor returns the findings involving the given actor.
func (a *Assessment) FindingsFor(actor string) []Finding {
	var out []Finding
	for _, f := range a.Findings {
		if f.Actor == actor {
			out = append(out, f)
		}
	}
	return out
}

// FindingsAtLeast returns the findings whose risk is at least the given
// level.
func (a *Assessment) FindingsAtLeast(level Level) []Finding {
	var out []Finding
	for _, f := range a.Findings {
		if f.Risk >= level {
			out = append(out, f)
		}
	}
	return out
}

// MaxRiskFor returns the highest risk among findings involving the actor.
func (a *Assessment) MaxRiskFor(actor string) Level {
	max := LevelNone
	for _, f := range a.FindingsFor(actor) {
		if f.Risk > max {
			max = f.Risk
		}
	}
	return max
}

// Analyzer performs unwanted-disclosure risk analysis. It never mutates the
// privacy LTS it analyses, so one generated model can be assessed against
// many user profiles.
type Analyzer struct {
	cfg Config

	// Scenario aggregates, precomputed at construction: the summed
	// probability and contributing names of the service-level scenarios (for
	// declared flows of non-consented services) and of the remaining
	// scenarios (for potential reads and mere exposure). The name slices are
	// shared read-only across every finding they apply to.
	serviceLikelihood float64
	serviceScenarios  []string
	otherLikelihood   float64
	otherScenarios    []string
}

// NewAnalyzer returns an analyzer with the given configuration; zero-value
// fields select the defaults.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Matrix.Validate(); err != nil {
		return nil, err
	}
	// Written to reject NaN as well: a NaN probability would poison the
	// precomputed likelihood aggregates below.
	for _, s := range cfg.Scenarios {
		if !(s.Probability >= 0 && s.Probability <= 1) {
			return nil, fmt.Errorf("risk: scenario %q probability %v outside [0,1]", s.Name, s.Probability)
		}
	}
	a := &Analyzer{cfg: cfg}
	for _, s := range cfg.Scenarios {
		if s.AppliesToService {
			a.serviceLikelihood += s.Probability
			a.serviceScenarios = append(a.serviceScenarios, s.Name)
		} else {
			a.otherLikelihood += s.Probability
			a.otherScenarios = append(a.otherScenarios, s.Name)
		}
	}
	if a.serviceLikelihood > 1 {
		a.serviceLikelihood = 1
	}
	if a.otherLikelihood > 1 {
		a.otherLikelihood = 1
	}
	return a, nil
}

// MustAnalyzer is like NewAnalyzer but panics on error; for fixtures.
func MustAnalyzer(cfg Config) *Analyzer {
	a, err := NewAnalyzer(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Analyze assesses the user profile against the privacy LTS.
func (a *Analyzer) Analyze(p *core.PrivacyLTS, profile UserProfile) (*Assessment, error) {
	return a.AnalyzeContext(context.Background(), p, profile)
}

// AnalyzeContext is Analyze with cancellation: ctx is polled while walking
// the model's transitions, so analyses of very large models abort promptly
// with ctx.Err() when the caller cancels or the deadline passes.
//
// The walk runs over the model's compiled view (core.PrivacyLTS.Compiled):
// per-edge labels and newly-set state variables are pre-resolved to dense
// actor/field indices once per model, and the profile's sensitivities and the
// allowed-actor set are resolved to index-addressed tables once per call, so
// the per-transition work is pure array arithmetic — no map lookups, no label
// rendering and no Variable allocation.
func (a *Analyzer) AnalyzeContext(ctx context.Context, p *core.PrivacyLTS, profile UserProfile) (*Assessment, error) {
	if p == nil {
		return nil, errors.New("risk: privacy LTS must not be nil")
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	for _, svc := range profile.ConsentedServices {
		if _, ok := p.Model.Service(svc); !ok {
			return nil, fmt.Errorf("risk: profile consents to unknown service %q", svc)
		}
	}

	allowed := p.Model.ServiceActors(profile.ConsentedServices...)
	allowedSet := make(map[string]bool, len(allowed))
	for _, actor := range allowed {
		allowedSet[actor] = true
	}
	var nonAllowed []string
	for _, actor := range p.Model.ActorIDs() {
		if !allowedSet[actor] {
			nonAllowed = append(nonAllowed, actor)
		}
	}
	sort.Strings(nonAllowed)

	assessment := &Assessment{
		Profile:          profile,
		AllowedActors:    allowed,
		NonAllowedActors: nonAllowed,
		OverallRisk:      LevelNone,
	}

	view := p.Compiled()
	actors := view.Actors()
	fields := view.Fields()

	// Per-call index tables: σ(d) per vocabulary field and "is allowed" per
	// vocabulary actor, so σ(d, a) inside the edge loop is two array loads.
	allowedIdx := make([]bool, len(actors))
	for i, name := range actors {
		allowedIdx[i] = allowedSet[name]
	}
	sens := make([]float64, len(fields))
	for i, f := range fields {
		sens[i] = profile.Sensitivity(f)
	}
	consentedSet := make(map[string]bool, len(profile.ConsentedServices))
	for _, svc := range profile.ConsentedServices {
		consentedSet[svc] = true
	}

	// Report-rendering memos for this call: every finding quotes names drawn
	// from the same small vocabulary and formats impact/likelihood values
	// drawn from the profile's sensitivity set, so each distinct string is
	// quoted and each distinct float formatted exactly once. The label's
	// field-set copy is likewise shared per label across the findings (and
	// calls) that reference it.
	rc := newRenderCache()
	fieldSets := make(map[*core.TransitionLabel][]string)

	// Whole-report memo: a finding's explanation and mitigation are fully
	// determined by the interned label string (which fixes action, fields,
	// performer, datastore and the potential marker), the label's service,
	// the at-risk actor, the driving field (which fixes the impact through
	// the profile's sensitivities) and the likelihood class. The same
	// disclosure event recurs from many states of the LTS — every state a
	// potential read is enabled in repeats it — so each distinct event is
	// rendered once per analysis.
	type reportKey struct {
		label        int32
		actor        int32
		driving      int32
		service      string
		serviceClass bool
	}
	type reportText struct {
		explanation string
		mitigation  string
	}
	reports := make(map[reportKey]reportText)

	// Per-actor exposure scratch, reused across every transition via epoch
	// stamping (no clearing, no per-transition map). Slots are only ever
	// stamped with a positive impact, and ascending actor index equals
	// ascending actor name, so iterating the slots in order reproduces the
	// sorted-actor finding order of the per-transition assessment.
	type exposure struct {
		impact float64
		// driving is the field whose sensitivity determines the impact.
		driving int32
		// identified is true when the transition sets a "has identified"
		// variable for the actor, i.e. the actor actually receives the data
		// through this transition rather than merely becoming able to read
		// it later.
		identified bool
		stamp      uint32
	}
	slots := make([]exposure, len(actors))
	epoch := uint32(0)

	// The edge loop records each finding as a compact record; the wide
	// Finding structs are materialised once, in sorted order, into an
	// exactly sized slice.
	type record struct {
		edge         int32
		actor        int32
		driving      int32
		serviceClass bool
		risk         Level
		impact       float64
	}
	var recs []record

	numEdges := view.Graph.NumEdges()
	for e := 0; e < numEdges; e++ {
		// Poll between transitions, spaced out so the atomic load never
		// shows up on profiles of small models.
		if e&255 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		label := view.Label(int32(e))
		if label == nil {
			continue
		}

		// Impact per non-allowed actor: the maximum sensitivity among the
		// state variables the transition newly sets for that actor, measured
		// with σ(d, a) so variables of allowed actors contribute nothing. The
		// change is measured relative to the source state; because variables
		// only accumulate along paths from the absolute privacy state, this
		// equals the paper's "change relative to the absolute privacy state"
		// for the variables this transition introduces.
		epoch++
		exposed := false
		for _, chg := range view.Changes(int32(e)) {
			if allowedIdx[chg.Actor] {
				continue
			}
			s := sens[chg.Field]
			if s <= 0 {
				continue
			}
			slot := &slots[chg.Actor]
			if slot.stamp != epoch {
				*slot = exposure{stamp: epoch}
			}
			if s > slot.impact {
				slot.impact = s
				slot.driving = chg.Field
			}
			if chg.Kind == core.HasIdentified {
				slot.identified = true
			}
			exposed = true
		}
		if !exposed {
			continue
		}

		// Likelihood: which scenarios can make the disclosure to this actor
		// happen? Declared flows of non-consented services that actually hand
		// the data over fall under the service-level scenarios; potential
		// reads and mere exposure fall under the remaining scenarios
		// (accidental access, maintenance exposure).
		consented := label.Service != "" && consentedSet[label.Service]
		for ai := range slots {
			slot := &slots[ai]
			if slot.stamp != epoch {
				continue
			}
			serviceClass := !label.Potential && slot.identified && !consented
			likelihood := a.otherLikelihood
			if serviceClass {
				likelihood = a.serviceLikelihood
			}
			riskLevel := a.cfg.Matrix.Risk(a.cfg.Matrix.ImpactLevel(slot.impact),
				a.cfg.Matrix.LikelihoodLevel(likelihood))
			recs = append(recs, record{edge: int32(e), actor: int32(ai), driving: slot.driving,
				serviceClass: serviceClass, risk: riskLevel, impact: slot.impact})
			if riskLevel > assessment.OverallRisk {
				assessment.OverallRisk = riskLevel
			}
		}
	}

	// Order by decreasing risk, then impact, then actor; the stable sort
	// keeps edge order among ties.
	slices.SortStableFunc(recs, func(ri, rj record) int {
		if ri.risk != rj.risk {
			if ri.risk > rj.risk {
				return -1
			}
			return 1
		}
		if ri.impact != rj.impact {
			if ri.impact > rj.impact {
				return -1
			}
			return 1
		}
		return strings.Compare(actors[ri.actor], actors[rj.actor])
	})

	if len(recs) > 0 {
		assessment.Findings = make([]Finding, len(recs))
	}
	for i := range recs {
		r := &recs[i]
		label := view.Label(r.edge)
		fieldSet, ok := fieldSets[label]
		if !ok {
			fieldSet = label.FieldSet()
			fieldSets[label] = fieldSet
		}
		likelihood := a.otherLikelihood
		scenarioNames := a.otherScenarios
		if r.serviceClass {
			likelihood = a.serviceLikelihood
			scenarioNames = a.serviceScenarios
		}
		f := &assessment.Findings[i]
		*f = Finding{
			Transition:      view.Graph.TransitionAt(r.edge),
			Action:          label.Action,
			Actor:           actors[r.actor],
			PerformedBy:     label.Actor,
			Datastore:       label.Datastore,
			Fields:          fieldSet,
			Potential:       label.Potential,
			Service:         label.Service,
			DrivingField:    fields[r.driving],
			Impact:          r.impact,
			ImpactLevel:     a.cfg.Matrix.ImpactLevel(r.impact),
			Likelihood:      likelihood,
			LikelihoodLevel: a.cfg.Matrix.LikelihoodLevel(likelihood),
			Scenarios:       scenarioNames,
			Risk:            r.risk,
		}
		key := reportKey{label: view.Graph.LabelID(r.edge), actor: r.actor, driving: r.driving,
			service: label.Service, serviceClass: r.serviceClass}
		text, ok := reports[key]
		if !ok {
			text = reportText{
				explanation: a.explain(f, view.FieldsJoined(r.edge), rc),
				mitigation:  a.suggestMitigation(f, rc),
			}
			reports[key] = text
		}
		f.Explanation = text.explanation
		f.Mitigation = text.mitigation
	}
	return assessment, nil
}

// renderCache memoises the report-path string conversions of one analysis:
// quoted identifiers (every finding quotes actor, store and field names drawn
// from the same vocabulary) and fixed-point floats (impacts come from the
// profile's sensitivity set, likelihoods from the analyzer's two scenario
// aggregates), so each distinct value goes through strconv exactly once per
// Analyze call.
type renderCache struct {
	quoted map[string]string
	fixed  map[float64]string
}

func newRenderCache() *renderCache {
	return &renderCache{quoted: make(map[string]string), fixed: make(map[float64]string)}
}

// quote returns strconv.Quote(s), memoised.
func (r *renderCache) quote(s string) string {
	q, ok := r.quoted[s]
	if !ok {
		q = strconv.Quote(s)
		r.quoted[s] = q
	}
	return q
}

// fixed2 returns the "%.2f" rendering of v, memoised.
func (r *renderCache) fixed2(v float64) string {
	s, ok := r.fixed[v]
	if !ok {
		s = strconv.FormatFloat(v, 'f', 2, 64)
		r.fixed[v] = s
	}
	return s
}

// explain renders the finding's explanation. It is on the per-finding report
// path of every analysis, so it writes directly into one pre-sized
// strings.Builder through the render cache instead of going through fmt; the
// output is byte-identical to the earlier fmt-based rendering, which the
// reference-equivalence tests pin down. fieldsJoined is the label's field
// list pre-joined with ", " (resolved once per edge by the compiled view).
func (a *Analyzer) explain(f *Finding, fieldsJoined string, rc *renderCache) string {
	var b strings.Builder
	b.Grow(160 + len(f.Actor) + len(f.PerformedBy) + len(f.Service) + len(f.Datastore) +
		len(fieldsJoined) + len(f.DrivingField))
	writeQuoted := func(s string) { b.WriteString(rc.quote(s)) }
	writeFixed2 := func(v float64) { b.WriteString(rc.fixed2(v)) }
	switch {
	case f.Potential:
		b.WriteString("non-allowed actor ")
		writeQuoted(f.Actor)
		b.WriteString(" may ")
		b.WriteString(f.Action.String())
		b.WriteString(" ")
		b.WriteString(fieldsJoined)
		b.WriteString(" from datastore ")
		writeQuoted(f.Datastore)
		b.WriteString(" although no declared flow requires it")
	case f.Actor == f.PerformedBy && f.Service != "":
		b.WriteString("flow of non-consented service ")
		writeQuoted(f.Service)
		b.WriteString(" lets actor ")
		writeQuoted(f.Actor)
		b.WriteString(" ")
		b.WriteString(f.Action.String())
		b.WriteString(" ")
		b.WriteString(fieldsJoined)
	case f.Service != "":
		b.WriteString(f.Action.String())
		b.WriteString(" by ")
		writeQuoted(f.PerformedBy)
		b.WriteString(" in service ")
		writeQuoted(f.Service)
		b.WriteString(" exposes ")
		b.WriteString(fieldsJoined)
		b.WriteString(" to non-allowed actor ")
		writeQuoted(f.Actor)
	default:
		b.WriteString(f.Action.String())
		b.WriteString(" by ")
		writeQuoted(f.PerformedBy)
		b.WriteString(" exposes ")
		b.WriteString(fieldsJoined)
		b.WriteString(" to non-allowed actor ")
		writeQuoted(f.Actor)
	}
	b.WriteString("; most sensitive field ")
	writeQuoted(f.DrivingField)
	b.WriteString(" (impact ")
	writeFixed2(f.Impact)
	b.WriteString("/")
	b.WriteString(f.ImpactLevel.String())
	b.WriteString(", likelihood ")
	writeFixed2(f.Likelihood)
	b.WriteString("/")
	b.WriteString(f.LikelihoodLevel.String())
	b.WriteString(") => risk ")
	b.WriteString(f.Risk.String())
	return b.String()
}

// suggestMitigation renders the finding's mitigation advice, built like
// explain with direct writes and byte-identical to the earlier fmt-based
// rendering. Findings only ever name non-allowed actors (σ is zero for
// allowed ones), so no allowed-actor branch is needed here.
func (a *Analyzer) suggestMitigation(f *Finding, rc *renderCache) string {
	var b strings.Builder
	writeQuoted := func(s string) { b.WriteString(rc.quote(s)) }
	switch {
	case f.Datastore != "":
		b.Grow(112 + len(f.Actor) + len(f.Datastore) + len(f.DrivingField))
		b.WriteString("remove or restrict ")
		writeQuoted(f.Actor)
		b.WriteString("'s read access to ")
		b.WriteString(f.Datastore)
		b.WriteString(".")
		b.WriteString(f.DrivingField)
		b.WriteString(" (e.g. accesscontrol.ACL.Restrict), or pseudonymise the field before storage")
	default:
		b.Grow(72 + len(f.Actor))
		b.WriteString("remove actor ")
		writeQuoted(f.Actor)
		b.WriteString(" from the service or reduce the fields disclosed to it")
	}
	return b.String()
}

// Change describes how the assessed risk for one (actor, datastore, field)
// disclosure event moved between two assessments, e.g. before and after an
// access-policy change (case study IV-A).
type Change struct {
	Actor     string
	Datastore string
	Field     string
	Before    Level
	After     Level
}

// String renders the change, e.g.
// "administrator on ehr.diagnosis: medium -> low".
func (c Change) String() string {
	return fmt.Sprintf("%s on %s.%s: %s -> %s", c.Actor, c.Datastore, c.Field, c.Before, c.After)
}

// Compare reports, per (actor, datastore, driving field), the highest risk
// level before and after, for the events present in either assessment.
func Compare(before, after *Assessment) []Change {
	type key struct{ actor, store, field string }
	maxOf := func(a *Assessment) map[key]Level {
		m := make(map[key]Level)
		if a == nil {
			return m
		}
		for _, f := range a.Findings {
			k := key{f.Actor, f.Datastore, f.DrivingField}
			if f.Risk > m[k] {
				m[k] = f.Risk
			}
		}
		return m
	}
	b := maxOf(before)
	aft := maxOf(after)
	keys := make(map[key]bool)
	for k := range b {
		keys[k] = true
	}
	for k := range aft {
		keys[k] = true
	}
	var out []Change
	for k := range keys {
		beforeLevel, afterLevel := b[k], aft[k]
		if beforeLevel == 0 {
			beforeLevel = LevelNone
		}
		if afterLevel == 0 {
			afterLevel = LevelNone
		}
		out = append(out, Change{Actor: k.actor, Datastore: k.store, Field: k.field,
			Before: beforeLevel, After: afterLevel})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Actor != out[j].Actor {
			return out[i].Actor < out[j].Actor
		}
		if out[i].Datastore != out[j].Datastore {
			return out[i].Datastore < out[j].Datastore
		}
		return out[i].Field < out[j].Field
	})
	return out
}
