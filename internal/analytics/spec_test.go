package analytics

import (
	"reflect"
	"testing"
)

// TestSpecRoundTrip checks SpecOf inverts Resolve for every built-in: the
// computation resolved from a built-in's spec must equal the original, so a
// worker handed a spec rebuilds exactly the computation the coordinator ran.
func TestSpecRoundTrip(t *testing.T) {
	comps := []Computation{
		WCC{},
		Degree{},
		BFS{Source: 7},
		SSSP{Source: 9},
		PageRank{Iterations: 4},
		SCC{},
		MPSP{Pairs: []Pair{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}},
	}
	for _, comp := range comps {
		spec, ok := SpecOf(comp)
		if !ok {
			t.Fatalf("%s: no spec for built-in", comp.Name())
		}
		back, err := spec.Resolve()
		if err != nil {
			t.Fatalf("%s: resolve: %v", comp.Name(), err)
		}
		if !reflect.DeepEqual(back, comp) {
			t.Fatalf("%s: round trip %#v -> %#v -> %#v", comp.Name(), comp, spec, back)
		}
	}
}

// TestSpecAliases checks the CLI aliases resolve to the canonical
// computations.
func TestSpecAliases(t *testing.T) {
	for alias, want := range map[string]string{
		"bellman-ford": SSSP{}.Name(),
		"pr":           PageRank{}.Name(),
	} {
		comp, err := Spec{Algorithm: alias}.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if comp.Name() != want {
			t.Fatalf("%s resolved to %s, want %s", alias, comp.Name(), want)
		}
	}
}

// TestSpecUnknown checks unknown algorithms and non-built-in computations
// are rejected rather than guessed at.
func TestSpecUnknown(t *testing.T) {
	if _, err := (Spec{Algorithm: "nope"}).Resolve(); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	if _, ok := SpecOf(custom{}); ok {
		t.Fatal("expected no spec for a non-built-in computation")
	}
}

type custom struct{ WCC }

func (custom) Name() string { return "custom" }
