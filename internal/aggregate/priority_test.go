package aggregate

import (
	"testing"
)

// TestPredicateGroupPriority: when a node matches several group predicates,
// it belongs to the first (the GVDL list is ordered, like a CASE
// expression).
func TestPredicateGroupPriority(t *testing.T) {
	g := callsGraph()
	stmt := mustParseAgg(t, `create view overlap on Calls
nodes group by [
(city = 'LA'),
(profession = 'Lawyer')]
aggregate count(*)`)
	v, err := Evaluate(g, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// LA residents (5, including LA lawyer #7) go to group 0; only NY
	// lawyers (2) remain for group 1.
	sizes := map[uint64]int64{}
	for _, sn := range v.SuperNodes {
		sizes[sn.ID] = sn.Size
	}
	if sizes[0] != 5 || sizes[1] != 2 {
		t.Fatalf("sizes = %v", sizes)
	}
}

// TestEmptyGroups: predicates matching nothing produce no super-node.
func TestEmptyGroups(t *testing.T) {
	g := callsGraph()
	stmt := mustParseAgg(t, `create view none on Calls
nodes group by [(city = 'Atlantis')]
aggregate count(*)`)
	v, err := Evaluate(g, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.SuperNodes) != 0 || len(v.SuperEdges) != 0 {
		t.Fatalf("got %d/%d super nodes/edges", len(v.SuperNodes), len(v.SuperEdges))
	}
}

// TestMultiPropertyGrouping groups by two node properties at once.
func TestMultiPropertyGrouping(t *testing.T) {
	g := callsGraph()
	stmt := mustParseAgg(t, `create view cp on Calls
nodes group by city, profession aggregate count(*)`)
	v, err := Evaluate(g, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct (city, profession) pairs in the fixture:
	// LA/Engineer, LA/Doctor, NY/Lawyer, NY/Doctor, LA/Lawyer = 5.
	if len(v.SuperNodes) != 5 {
		t.Fatalf("%d super nodes: %+v", len(v.SuperNodes), v.SuperNodes)
	}
	byKey := map[string]int64{}
	for _, sn := range v.SuperNodes {
		byKey[sn.Key] = sn.Size
	}
	if byKey["LA|Engineer"] != 3 || byKey["NY|Lawyer"] != 2 {
		t.Fatalf("group sizes: %v", byKey)
	}
}
