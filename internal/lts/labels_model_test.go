package lts_test

import (
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/lts"
	"privascope/internal/synth"
)

// TestCompileLabelsMatchStringInterning checks that the compiled label table
// of generated privacy models, whose labels are interned pointers, equals
// what interning every transition's label string produces.
func TestCompileLabelsMatchStringInterning(t *testing.T) {
	models := map[string]*dataflow.Model{
		"surgery": casestudy.Surgery(),
		"synth":   synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3}),
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			p, err := core.Generate(m)
			if err != nil {
				t.Fatal(err)
			}
			lts.RequireStringInterning(t, lts.Compile(p.Graph), p.Graph.Transitions())
		})
	}
}
