package core

import (
	"privascope/internal/explore"
)

// expandScratch is the per-worker scratch of the expander: reusable field
// and key buffers and the potential-read label cache (labels are
// deduplicated by (store, reader, field subset), so steady-state expansion
// allocates no labels). Which worker's cached pointer an edge gets depends on
// scheduling; assemble interns the labels afterwards so the generated LTS has
// one pointer per label content for every worker count.
type expandScratch struct {
	fields []string
	keyBuf []byte
	labels map[string]*TransitionLabel
}

// scratchOf returns the worker's scratch, creating it on first use.
func scratchOf(sink *explore.Sink) *expandScratch {
	if sc, ok := sink.Scratch.(*expandScratch); ok {
		return sc
	}
	sc := &expandScratch{labels: make(map[string]*TransitionLabel)}
	sink.Scratch = sc
	return sc
}

// applyFlowInto applies the flow's effect to next, which must already be a
// copy of the predecessor state.
func applyFlowInto(cm *compiledModel, next packedState, cf *compiledFlow) {
	for _, wm := range cf.setHas {
		next[wm.word] |= wm.mask
	}
	if cf.storeIdx >= 0 {
		base := cm.codec.storeBase(cf.storeIdx)
		if cf.action == ActionDelete {
			for w, m := range cf.storeClear {
				next[base+w] &^= m
			}
		} else {
			for w, m := range cf.storeOr {
				next[base+w] |= m
			}
		}
	}
	if cm.codec.ordering == OrderDataDriven {
		cm.codec.setFired(next, cf.flowIdx)
	} else {
		cm.codec.bumpProgress(next, cf.svcIdx)
	}
}

// emitFlow emits the declared flow's successor of ps to the sink.
func emitFlow(cm *compiledModel, ps packedState, cf *compiledFlow, sink *explore.Sink) {
	next := packedState(sink.Copy(ps))
	applyFlowInto(cm, next, cf)
	sink.Emit(next, cf.label, false)
}

// emitPotential emits the potential read of store si by reader ri, if the
// reader can learn anything in ps (the store holds a readable field the actor
// has not identified). The label is served from the worker's cache keyed by
// (store, reader, field subset), matching NewTransitionLabel's output
// byte-for-byte.
func emitPotential(cm *compiledModel, ps packedState, si, ri int, terminal bool, sink *explore.Sink, sc *expandScratch) {
	cs := &cm.stores[si]
	r := &cs.readers[ri]
	sc.fields = sc.fields[:0]
	sc.keyBuf = append(sc.keyBuf[:0], byte(si), byte(si>>8), byte(ri), byte(ri>>8))
	for fi := range r.fields {
		rf := &r.fields[fi]
		if ps[cs.base+rf.word]&rf.mask == 0 {
			continue // field not in the store
		}
		if rf.has.mask != 0 && ps[rf.has.word]&rf.has.mask != 0 {
			continue // actor already identified it
		}
		sc.fields = append(sc.fields, rf.name)
		sc.keyBuf = append(sc.keyBuf, byte(fi), byte(fi>>8))
	}
	if len(sc.fields) == 0 {
		return
	}
	label, ok := sc.labels[string(sc.keyBuf)]
	if !ok {
		label = NewTransitionLabel(ActionRead, r.actor, sc.fields)
		label.Datastore = cs.id
		label.Potential = true
		sc.labels[string(sc.keyBuf)] = label
	}
	next := packedState(sink.Copy(ps))
	for fi := range r.fields {
		rf := &r.fields[fi]
		if next[cs.base+rf.word]&rf.mask != 0 {
			next[rf.has.word] |= rf.has.mask
		}
	}
	sink.Emit(next, label, terminal)
}

// expandInto enumerates every successor of ps into the sink in the
// deterministic order of the original in-core BFS: declared flows (services
// in sorted order under OrderSequential, global flow order under
// OrderDataDriven), then potential reads (stores in DatastoreIDs order,
// readers in sorted actor order).
func expandInto(cm *compiledModel, ps packedState, sink *explore.Sink, sc *expandScratch, mode PotentialReadMode) {
	if cm.codec.ordering == OrderDataDriven {
		for i := range cm.flows {
			cf := &cm.flows[i]
			if cm.codec.fired(ps, cf.flowIdx) || !cm.enabled(cf, ps) {
				continue
			}
			emitFlow(cm, ps, cf, sink)
		}
	} else {
		for svcIdx := range cm.services {
			svc := &cm.services[svcIdx]
			idx := cm.codec.progress(ps, svcIdx)
			if idx >= len(svc.flowIdxs) {
				continue
			}
			cf := &cm.flows[svc.flowIdxs[idx]]
			if !cm.enabled(cf, ps) {
				continue
			}
			emitFlow(cm, ps, cf, sink)
		}
	}

	if mode == PotentialReadsOff {
		return
	}
	terminal := mode == PotentialReadsTerminal
	for si := range cm.stores {
		cs := &cm.stores[si]
		empty := true
		for w := 0; w < cm.codec.storeWords; w++ {
			if ps[cs.base+w] != 0 {
				empty = false
				break
			}
		}
		if empty {
			continue
		}
		for ri := range cs.readers {
			emitPotential(cm, ps, si, ri, terminal, sink, sc)
		}
	}
}

// coldExpander expands every state against the compiled model.
type coldExpander struct {
	cm   *compiledModel
	mode PotentialReadMode
}

func (e *coldExpander) Words() int        { return e.cm.codec.totalWords }
func (e *coldExpander) Initial() []uint64 { return e.cm.codec.newState() }

func (e *coldExpander) Expand(ps []uint64, sink *explore.Sink) {
	expandInto(e.cm, ps, sink, scratchOf(sink), e.mode)
}
