// Property tests of incremental regeneration: relabelling the previous model
// is a pure optimisation and falling back is always safe, so for every
// drawable scenario the output must be byte-identical to the plain cold
// generation. The tests live in the external test package so they can drive
// regeneration through internal/core, the subsystem's only real caller.

package explore_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/explore"
	"privascope/internal/proptest"
	"privascope/internal/synth"
)

// digest hashes the complete serialised LTS plus its verbose DOT rendering,
// so any divergence in state numbering, labels, vectors or store contents
// changes the digest (the same construction as internal/core's test digest).
func digest(p *core.PrivacyLTS) (string, error) {
	data, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(data)
	h.Write([]byte(p.DOT(core.DOTOptions{VerboseStates: true})))
	return hex.EncodeToString(h.Sum(nil)), nil
}

// modelPair draws the same random model twice from one seed: two structurally
// independent copies the caller can mutate apart and diff.
func modelPair(seed int64) (*dataflow.Model, *dataflow.Model) {
	spec := synth.RandomModelSpec{Policy: synth.PolicyACL}
	before := synth.RandomModel(rand.New(rand.NewSource(seed)), spec)
	after := synth.RandomModel(rand.New(rand.NewSource(seed)), spec)
	return before, after
}

func drawMode(rng *rand.Rand) core.PotentialReadMode {
	return []core.PotentialReadMode{
		core.PotentialReadsOff, core.PotentialReadsTerminal, core.PotentialReadsFull,
	}[rng.Intn(3)]
}

// mutateMetadata applies 1..3 random metadata mutations to m — flow purpose
// relabels and model renames — and describes them. None changes the model's
// structure or policy, so the resulting delta is metadata or identical.
func mutateMetadata(rng *rand.Rand, m *dataflow.Model) string {
	desc := ""
	for n := 1 + rng.Intn(3); n > 0; n-- {
		if rng.Intn(2) == 0 {
			i := rng.Intn(len(m.Flows))
			m.Flows[i].Purpose = fmt.Sprintf("mut-purpose-%d", rng.Intn(1000))
			desc += fmt.Sprintf("[relabel flow %d]", i)
		} else {
			m.Name += "-mutated"
			desc += "[rename model]"
		}
	}
	return desc
}

// mutatePolicy applies one ACL edit that changes at least one access answer:
// it revokes every grant of an actor on a store the actor has a grant on, or
// grants a read the policy does not yet allow. It returns "" when the model
// offers no such edit.
func mutatePolicy(rng *rand.Rand, m *dataflow.Model) string {
	acl := m.Policy.(*accesscontrol.ACL)
	perms := []accesscontrol.Permission{
		accesscontrol.PermissionRead, accesscontrol.PermissionWrite, accesscontrol.PermissionDelete,
	}
	type cell struct{ actor, store, field string }
	var granted, missing []cell
	for _, a := range m.ActorIDs() {
		for _, s := range m.DatastoreIDs() {
			for _, f := range m.FieldUniverse() {
				if !acl.Allows(a, s, f, accesscontrol.PermissionRead) {
					missing = append(missing, cell{a, s, f})
				}
				for _, perm := range perms {
					if acl.Allows(a, s, f, perm) {
						granted = append(granted, cell{a, s, f})
						break
					}
				}
			}
		}
	}
	if len(granted) > 0 && (len(missing) == 0 || rng.Intn(2) == 0) {
		c := granted[rng.Intn(len(granted))]
		m.Policy = acl.WithoutActor(c.actor, c.store)
		return fmt.Sprintf("[revoke %s@%s]", c.actor, c.store)
	}
	if len(missing) == 0 {
		return ""
	}
	c := missing[rng.Intn(len(missing))]
	if err := acl.Add(accesscontrol.Grant{
		Actor: c.actor, Datastore: c.store, Fields: []string{c.field},
		Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead},
		Reason:      "property-test grant",
	}); err != nil {
		return ""
	}
	return fmt.Sprintf("[grant read %s@%s.%s]", c.actor, c.store, c.field)
}

// TestPropDeltaRegenMatchesCold: for any random model and any metadata
// mutation of it, regeneration relabels the previous model without falling
// back and produces an LTS byte-identical to a cold generation of the
// mutated model.
func TestPropDeltaRegenMatchesCold(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		before, after := modelPair(seed)
		desc := mutateMetadata(rng, after)
		opts := core.Options{PotentialReads: drawMode(rng), Workers: 1 + rng.Intn(4)}

		gen := core.NewGenerator(opts)
		prev, err := gen.GenerateContext(t.Context(), before)
		if err != nil {
			return fmt.Errorf("cold generate (before): %w", err)
		}
		got, report, err := gen.RegenerateContext(t.Context(), prev, after)
		if err != nil {
			return fmt.Errorf("regenerate %s: %w", desc, err)
		}
		if report.Fallback {
			return fmt.Errorf("metadata delta %s fell back: kind=%s reason=%q",
				desc, report.DeltaKind, report.FallbackReason)
		}
		return requireColdDigest(got, after, opts, desc)
	})
}

// requireColdDigest checks got against a cold generation of m.
func requireColdDigest(got *core.PrivacyLTS, m *dataflow.Model, opts core.Options, desc string) error {
	cold, err := core.GenerateWithOptions(m, opts)
	if err != nil {
		return fmt.Errorf("cold generate (after): %w", err)
	}
	gd, err := digest(got)
	if err != nil {
		return err
	}
	cd, err := digest(cold)
	if err != nil {
		return err
	}
	if gd != cd {
		return fmt.Errorf("%s: regenerated digest %s != cold digest %s", desc, gd, cd)
	}
	return nil
}

// TestPropUnsafeDeltaFallsBack: any structural mutation must classify as an
// unsafe delta and any effective policy edit as a policy delta; both force
// regeneration back onto the full cold path, which must still produce output
// byte-identical to a cold generation of the changed model — falling back
// never loses correctness.
func TestPropUnsafeDeltaFallsBack(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		before, after := modelPair(seed)
		var desc string
		wantKind := explore.DeltaUnsafe
		switch rng.Intn(5) {
		case 0:
			after.Actors = append(after.Actors, dataflow.Actor{ID: "zz-extra", Name: "Extra"})
			desc = "add actor"
		case 1:
			after.Services = append(after.Services, dataflow.Service{ID: "zz-svc", Name: "Extra Service"})
			desc = "add service"
		case 2:
			last := len(after.Datastores) - 1
			after.Datastores = after.Datastores[:last]
			pruned := before.Datastores[last].ID
			flows := after.Flows[:0]
			for _, f := range after.Flows {
				if f.From != pruned && f.To != pruned {
					flows = append(flows, f)
				}
			}
			after.Flows = flows
			desc = "remove datastore"
		default:
			if desc = mutatePolicy(rng, after); desc == "" {
				return nil // no effective policy edit exists for this model
			}
			wantKind = explore.DeltaPolicy
		}

		if d := explore.Diff(before, after); d.Kind != wantKind {
			return fmt.Errorf("%s classified as %s, want %s", desc, d.Kind, wantKind)
		}
		opts := core.Options{PotentialReads: drawMode(rng), Workers: 1 + rng.Intn(4)}
		gen := core.NewGenerator(opts)
		prev, err := gen.GenerateContext(t.Context(), before)
		if err != nil {
			return fmt.Errorf("cold generate (before): %w", err)
		}
		got, report, err := gen.RegenerateContext(t.Context(), prev, after)
		if err != nil {
			return fmt.Errorf("regenerate after %s: %w", desc, err)
		}
		if !report.Fallback || report.FallbackReason == "" {
			return fmt.Errorf("%s: fallback=%v reason=%q, want a full fallback with a reason",
				desc, report.Fallback, report.FallbackReason)
		}
		return requireColdDigest(got, after, opts, desc)
	})
}
