package core

import (
	"context"
	"reflect"
	"strings"

	"privascope/internal/dataflow"
	"privascope/internal/explore"
	"privascope/internal/lts"
)

// ExploreReport describes how RegenerateContext produced its LTS; it is
// diagnostic output, not part of the LTS.
type ExploreReport struct {
	// Fallback reports a cold exploration and FallbackReason says why; a
	// report without Fallback means the previous LTS was relabelled and no
	// state was explored.
	Fallback       bool
	FallbackReason string
	// DeltaKind is explore.Diff's classification of the model delta; empty
	// when there was no previous generation.
	DeltaKind string
}

// RegenerateContext rebuilds the privacy LTS for m, reusing prev where the
// model delta proves it safe. prev must come from GenerateContext or
// RegenerateContext of a generator with the same options; nil forces a cold
// generation.
//
// The delta between prev.Model and m (explore.Diff) decides the path.
// Identical and metadata deltas leave states, edges, vectors and store
// contents untouched, so prev is relabelled: declared-flow labels are
// re-derived from the new compilation by FlowKey and potential-read labels
// are kept. Policy and unsafe deltas explore cold. Every path produces a
// PrivacyLTS byte-identical to a cold GenerateContext(m), with identical
// warnings; the report says which path ran and why.
func (g *Generator) RegenerateContext(ctx context.Context, prev *PrivacyLTS, m *dataflow.Model) (*PrivacyLTS, *ExploreReport, error) {
	pre, err := g.prepare(m)
	if err != nil {
		return nil, nil, err
	}
	report := &ExploreReport{Fallback: true, FallbackReason: "no previous generation to reuse"}
	if prev != nil {
		delta := explore.Diff(prev.Model, m)
		report.DeltaKind = delta.Kind.String()
		switch delta.Kind {
		case explore.DeltaIdentical, explore.DeltaMetadata:
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			if err := relabel(pre, prev); err != nil {
				return nil, nil, err
			}
			report.Fallback, report.FallbackReason = false, ""
			return pre.p, report, nil
		case explore.DeltaPolicy:
			report.FallbackReason = "access-control answers changed"
		default:
			report.FallbackReason = strings.Join(delta.Reasons, "; ")
		}
	}
	if err := g.explore(ctx, pre); err != nil {
		return nil, nil, err
	}
	return pre.p, report, nil
}

// relabel fills pre.p from prev without exploring. States, vectors and store
// contents are shared (they are read-only through the PrivacyLTS API).
// Declared-flow labels are re-derived from the new compilation by FlowKey,
// memoised per old label, because a metadata delta may change flow purposes;
// potential-read labels are purely structural and kept. When no label
// changed the graph is shared too.
func relabel(pre *prepared, prev *PrivacyLTS) error {
	byKey := make(map[string]*TransitionLabel, len(pre.cm.flows))
	for i := range pre.cm.flows {
		l := pre.cm.flows[i].label
		byKey[l.FlowKey] = l
	}
	trs := prev.Graph.Transitions()
	labels := make([]lts.Label, len(trs))
	memo := make(map[*TransitionLabel]*TransitionLabel)
	changed := false
	for i := range trs {
		labels[i] = trs[i].Label
		old, ok := trs[i].Label.(*TransitionLabel)
		if !ok || old.FlowKey == "" {
			continue // potential reads are purely structural
		}
		next, seen := memo[old]
		if !seen {
			// explore.Diff guarantees identical flow shapes, so every
			// declared flow of prev has a label in the new compilation.
			next = byKey[old.FlowKey]
			if reflect.DeepEqual(old, next) {
				next = old
			} else {
				changed = true
			}
			memo[old] = next
		}
		labels[i] = next
	}
	p := pre.p
	p.vectors, p.stores = prev.vectors, prev.stores
	if !changed {
		p.Graph = prev.Graph
		return nil
	}
	graph, err := prev.Graph.Relabeled(labels)
	if err != nil {
		return err
	}
	p.Graph = graph
	return nil
}
