package lts

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// countingLabel is a pointer label that counts its renderings.
type countingLabel struct {
	text  string
	calls *int
}

func (l *countingLabel) LabelString() string {
	*l.calls++
	return l.text
}

// sliceLabel is a non-comparable label value: == on two of them panics.
type sliceLabel struct{ parts []string }

func (l sliceLabel) LabelString() string { return strings.Join(l.parts, "+") }

// stringInterned is the reference interning: one label ID per distinct
// label string, numbered by first occurrence, keeping the first Label seen.
func stringInterned(trs []Transition) (ids []int32, strs []string, first []Label) {
	byStr := make(map[string]int32)
	for _, t := range trs {
		s := ""
		if t.Label != nil {
			s = t.Label.LabelString()
		}
		id, ok := byStr[s]
		if !ok {
			id = int32(len(strs))
			byStr[s] = id
			strs = append(strs, s)
			first = append(first, t.Label)
		}
		ids = append(ids, id)
	}
	return ids, strs, first
}

// RequireStringInterning checks the compiled label table against the
// string-only reference interning of the same transitions; exported for the
// external test package.
func RequireStringInterning(t *testing.T, c *Compiled, trs []Transition) {
	t.Helper()
	ids, strs, first := stringInterned(trs)
	if c.NumLabels() != len(strs) {
		t.Fatalf("NumLabels = %d, want %d", c.NumLabels(), len(strs))
	}
	for e, want := range ids {
		if got := c.LabelID(int32(e)); got != want {
			t.Fatalf("transition %d: label ID %d, want %d", e, got, want)
		}
	}
	for lid, s := range strs {
		if got := c.LabelString(int32(lid)); got != s {
			t.Fatalf("label %d: string %q, want %q", lid, got, s)
		}
		if got := c.Label(int32(lid)); !sameLabel(got, first[lid]) {
			t.Fatalf("label %d: not the first Label rendering %q", lid, s)
		}
	}
}

// sameLabel reports whether a and b are the same label: the same pointer for
// pointer labels, equal values otherwise.
func sameLabel(a, b Label) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Kind() == reflect.Pointer && vb.Kind() == reflect.Pointer {
		return va.Pointer() == vb.Pointer()
	}
	return reflect.DeepEqual(a, b)
}

// TestCompileRendersEachPointerLabelOnce checks that Compile renders a
// pointer label once, however many transitions carry it, while distinct
// pointers with equal strings still share one label ID.
func TestCompileRendersEachPointerLabelOnce(t *testing.T) {
	calls := 0
	labels := []*countingLabel{
		{text: "read(a)", calls: &calls},
		{text: "read(b)", calls: &calls},
		{text: "read(a)", calls: &calls}, // same string, different pointer
		{text: "", calls: &calls},
	}
	l := New()
	for i := 0; i < 400; i++ {
		l.AddTransitionUnchecked(StateID(fmt.Sprintf("s%d", i%37)), StateID(fmt.Sprintf("s%d", (i*7)%37)), labels[i%len(labels)])
	}
	l.AddTransitionUnchecked("s0", "s1", nil)
	calls = 0
	c := Compile(l)
	if calls != len(labels) {
		t.Fatalf("Compile rendered %d labels, want one rendering per pointer (%d)", calls, len(labels))
	}
	RequireStringInterning(t, c, l.Transitions())
	if c.NumLabels() != 3 {
		t.Fatalf("NumLabels = %d, want 3 (read(a), read(b), empty)", c.NumLabels())
	}
}

// TestCompileInternsValueLabelsByString checks that value labels, including
// non-comparable ones, intern by string without panicking.
func TestCompileInternsValueLabelsByString(t *testing.T) {
	l := New()
	for i := 0; i < 60; i++ {
		from, to := StateID(fmt.Sprintf("s%d", i%9)), StateID(fmt.Sprintf("s%d", (i+1)%9))
		switch i % 4 {
		case 0:
			l.AddTransitionUnchecked(from, to, StringLabel(fmt.Sprintf("a%d", i%5)))
		case 1:
			l.AddTransitionUnchecked(from, to, sliceLabel{parts: []string{"x", fmt.Sprint(i % 3)}})
		case 2:
			l.AddTransitionUnchecked(from, to, StringLabel("x+1")) // same string as a sliceLabel
		default:
			l.AddTransitionUnchecked(from, to, nil)
		}
	}
	RequireStringInterning(t, Compile(l), l.Transitions())
}
