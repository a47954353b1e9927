package lts

import "fmt"

// BulkEdge is one transition of a bulk-constructed LTS, with endpoints given
// as dense indices into the state-ID list passed to FromParts.
type BulkEdge struct {
	From, To int32
	Label    Label
}

// Relabeled returns an LTS sharing the receiver's state set, iteration order
// and transition index structures, in which transition i carries labels[i]
// (in Transitions order) instead of the receiver's label. Because the state
// maps are shared, neither LTS may be mutated afterwards — the generated-LTS
// contract. Incremental regeneration uses this to swap re-derived labels into
// a reused previous model without rebuilding any index.
func (l *LTS) Relabeled(labels []Label) (*LTS, error) {
	if len(labels) != len(l.transitions) {
		return nil, fmt.Errorf("lts: Relabeled: %d labels for %d transitions", len(labels), len(l.transitions))
	}
	c := &LTS{
		initial: l.initial, hasInitial: l.hasInitial,
		states: l.states, order: l.order,
		outgoing: l.outgoing, incoming: l.incoming,
		transitions: make([]Transition, len(l.transitions)),
	}
	for i := range l.transitions {
		t := l.transitions[i]
		t.Label = labels[i]
		c.transitions[i] = t
	}
	return c, nil
}

// FromParts builds an LTS in bulk from a dense state list and edge list, the
// shape exploration drivers naturally produce. It is equivalent to calling
// AddState for every ID in order, SetInitial, and AddTransitionUnchecked for
// every edge in order — but allocates the transition slice and the
// outgoing/incoming index backing arrays exactly once instead of growing
// them edge by edge.
//
// ids must be distinct; edge endpoints must index into ids. initial is the
// index of the initial state, or -1 for none.
func FromParts(ids []StateID, initial int, edges []BulkEdge) (*LTS, error) {
	n := len(ids)
	l := &LTS{
		states:   make(map[StateID]State, n),
		order:    append([]StateID(nil), ids...),
		outgoing: make(map[StateID][]int, n),
		incoming: make(map[StateID][]int, n),
	}
	for _, id := range ids {
		if _, dup := l.states[id]; dup {
			return nil, fmt.Errorf("lts: FromParts: duplicate state ID %q", id)
		}
		l.states[id] = State{ID: id}
	}
	if initial >= 0 {
		if initial >= n {
			return nil, fmt.Errorf("lts: FromParts: initial index %d out of range", initial)
		}
		l.initial = ids[initial]
		l.hasInitial = true
	}

	l.transitions = make([]Transition, len(edges))
	// Counting sort of edge indices by From and by To: one backing array per
	// direction, sliced per state.
	outCount := make([]int32, n+1)
	inCount := make([]int32, n+1)
	for i, e := range edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("lts: FromParts: edge %d endpoints (%d, %d) out of range", i, e.From, e.To)
		}
		l.transitions[i] = Transition{From: ids[e.From], To: ids[e.To], Label: e.Label}
		outCount[e.From+1]++
		inCount[e.To+1]++
	}
	for s := 0; s < n; s++ {
		outCount[s+1] += outCount[s]
		inCount[s+1] += inCount[s]
	}
	outIdx := make([]int, len(edges))
	inIdx := make([]int, len(edges))
	outPos := make([]int32, n)
	inPos := make([]int32, n)
	for i, e := range edges {
		outIdx[outCount[e.From]+outPos[e.From]] = i
		outPos[e.From]++
		inIdx[inCount[e.To]+inPos[e.To]] = i
		inPos[e.To]++
	}
	for s := 0; s < n; s++ {
		if lo, hi := outCount[s], outCount[s+1]; hi > lo {
			l.outgoing[ids[s]] = outIdx[lo:hi:hi]
		}
		if lo, hi := inCount[s], inCount[s+1]; hi > lo {
			l.incoming[ids[s]] = inIdx[lo:hi:hi]
		}
	}
	return l, nil
}
