package explore

import (
	"fmt"
	"reflect"
	"sort"

	"privascope/internal/accesscontrol"
	"privascope/internal/dataflow"
	"privascope/internal/schema"
)

// DeltaKind classifies the difference between two data-flow models from the
// viewpoint of incremental regeneration.
type DeltaKind int

const (
	// DeltaIdentical: the models are indistinguishable (including policy).
	DeltaIdentical DeltaKind = iota + 1
	// DeltaMetadata: only fields that cannot change the explored state space
	// differ — names, descriptions, purposes, schema categories.
	DeltaMetadata
	// DeltaPolicy: the structure is identical but access-control answers
	// changed. Potential reads and "could identify" bits may differ, so the
	// previous LTS cannot be relabelled; regenerate from scratch.
	DeltaPolicy
	// DeltaUnsafe: the structure itself changed (actors, stores, schema
	// fields, services, flows, or a non-enumerable policy type); regenerate
	// from scratch.
	DeltaUnsafe
)

// String names the kind.
func (k DeltaKind) String() string {
	switch k {
	case DeltaIdentical:
		return "identical"
	case DeltaMetadata:
		return "metadata"
	case DeltaPolicy:
		return "policy"
	case DeltaUnsafe:
		return "unsafe"
	default:
		return fmt.Sprintf("deltakind(%d)", int(k))
	}
}

// Delta is the result of diffing two models.
type Delta struct {
	Kind DeltaKind
	// Reasons explains DeltaUnsafe classifications.
	Reasons []string
}

// Diff classifies the difference between two models. The structural parts —
// user, actor set, datastores and their schema field names, services, and
// every flow's shape — must match exactly for any reuse to be safe; on top
// of an identical structure the access-control policies are compared over
// the full (actor × datastore × field × permission) scope, including actors
// that only the policies know about and the pseudonymised field forms the
// exploration encoding tracks.
func Diff(before, after *dataflow.Model) *Delta {
	d := &Delta{}
	unsafe := func(format string, args ...any) {
		d.Reasons = append(d.Reasons, fmt.Sprintf(format, args...))
	}
	if before == nil || after == nil {
		d.Kind = DeltaUnsafe
		unsafe("nil model")
		return d
	}
	if before.User.ID != after.User.ID {
		unsafe("data subject changed: %q -> %q", before.User.ID, after.User.ID)
	}
	if !stringsEqual(before.ActorIDs(), after.ActorIDs()) {
		unsafe("actor set changed")
	}
	if !stringsEqual(before.DatastoreIDs(), after.DatastoreIDs()) {
		unsafe("datastore set changed")
	} else {
		for _, id := range after.DatastoreIDs() {
			db, _ := before.Datastore(id)
			da, _ := after.Datastore(id)
			if db.Anonymised != da.Anonymised {
				unsafe("datastore %q anonymisation changed", id)
			}
			if !stringsEqual(sortedFieldNames(db.Schema), sortedFieldNames(da.Schema)) {
				unsafe("datastore %q schema fields changed", id)
			}
		}
	}
	if !stringsEqual(before.ServiceIDs(), after.ServiceIDs()) {
		unsafe("service set changed")
	} else {
		for _, svcID := range after.ServiceIDs() {
			fb, fa := before.ServiceFlows(svcID), after.ServiceFlows(svcID)
			if len(fb) != len(fa) {
				unsafe("service %q flow count changed", svcID)
				continue
			}
			for i := range fa {
				if fb[i].Order != fa[i].Order || fb[i].From != fa[i].From || fb[i].To != fa[i].To ||
					fb[i].Delete != fa[i].Delete ||
					!stringsEqual(fb[i].Fields, fa[i].Fields) || !stringsEqual(fb[i].Authored, fa[i].Authored) {
					unsafe("service %q flow %d changed shape", svcID, fa[i].Order)
				}
			}
		}
	}
	if len(d.Reasons) > 0 {
		d.Kind = DeltaUnsafe
		return d
	}

	// Policy comparison over the full scope: model actors plus every actor
	// either policy names, every store crossed with the exploration's field
	// universe (model fields and their pseudonymised forms).
	actorSet := make(map[string]bool)
	for _, a := range after.ActorIDs() {
		actorSet[a] = true
	}
	if !collectPolicyActors(before.Policy, actorSet) || !collectPolicyActors(after.Policy, actorSet) {
		d.Kind = DeltaUnsafe
		unsafe("policy type does not enumerate its actors; cannot bound the comparison scope")
		return d
	}
	fieldSet := make(map[string]bool)
	for _, f := range after.FieldUniverse() {
		fieldSet[f] = true
		fieldSet[schema.AnonName(f)] = true
	}
	fields := make([]string, 0, len(fieldSet))
	for f := range fieldSet {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	actors := make([]string, 0, len(actorSet))
	for a := range actorSet {
		actors = append(actors, a)
	}
	sort.Strings(actors)
	scope := accesscontrol.Scope{Actors: actors, Datastores: make(map[string][]string)}
	for _, id := range after.DatastoreIDs() {
		scope.Datastores[id] = fields
	}
	changes := accesscontrol.Diff(policyOrEmpty(before.Policy), policyOrEmpty(after.Policy), scope)

	switch {
	case len(changes) > 0:
		d.Kind = DeltaPolicy
	case metadataEqual(before, after):
		d.Kind = DeltaIdentical
	default:
		d.Kind = DeltaMetadata
	}
	return d
}

// collectPolicyActors adds every actor the policy names to the set,
// returning false for policy types it cannot enumerate.
func collectPolicyActors(p accesscontrol.Policy, out map[string]bool) bool {
	switch pp := p.(type) {
	case nil:
		return true
	case *accesscontrol.ACL:
		for _, a := range pp.Actors() {
			out[a] = true
		}
		return true
	case *accesscontrol.RBAC:
		for _, a := range pp.Actors() {
			out[a] = true
		}
		return true
	case *accesscontrol.Composite:
		for _, sub := range pp.Policies() {
			if !collectPolicyActors(sub, out) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func policyOrEmpty(p accesscontrol.Policy) accesscontrol.Policy {
	if p == nil {
		return &accesscontrol.ACL{}
	}
	return p
}

// metadataEqual reports whether the models are deeply equal outside the
// policy (which the caller has already compared semantically).
func metadataEqual(a, b *dataflow.Model) bool {
	ac, bc := *a, *b
	ac.Policy, bc.Policy = nil, nil
	return reflect.DeepEqual(ac, bc)
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedFieldNames(s schema.Schema) []string {
	names := make([]string, 0, len(s.Fields))
	for _, f := range s.Fields {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return names
}
