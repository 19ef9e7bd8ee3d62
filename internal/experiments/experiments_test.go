package experiments

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"
)

// tinyCfg runs experiments at a very small scale; these tests check
// structure and sanity, not performance shapes (the bench harness and
// EXPERIMENTS.md cover those).
func tinyCfg(buf *bytes.Buffer) Config {
	return Config{Scale: 0.02, Workers: 1, Out: buf}
}

func TestTable2Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table2(context.Background(), tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.DiffOnly <= 0 || r.Scratch <= 0 {
			t.Fatalf("row %+v has zero runtime", r)
		}
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("missing header")
	}
}

func TestFig6Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig6(context.Background(), tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*5 {
		t.Fatalf("%d rows", len(rows))
	}
	// Smaller windows yield more views.
	if rows[0].Views <= rows[4].Views {
		t.Fatalf("views not decreasing with w: %+v vs %+v", rows[0], rows[4])
	}
}

func TestFig7Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig7(context.Background(), tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*5 {
		t.Fatalf("%d rows", len(rows))
	}
}

func TestTable3Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table3(context.Background(), tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*3 {
		t.Fatalf("%d rows", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Collection] = true
	}
	for _, c := range []string{"Csl", "Cex-sh-sl", "Caut"} {
		if !seen[c] {
			t.Fatalf("missing collection %s", c)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table4(context.Background(), tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*2*4 {
		t.Fatalf("%d rows", len(rows))
	}
	// The optimizer's order should not produce more diffs than the worst
	// random order.
	byKey := map[string][]Table4Row{}
	for _, r := range rows {
		byKey[r.Dataset+r.Collection] = append(byKey[r.Dataset+r.Collection], r)
	}
	for k, rs := range byKey {
		var ord, worst int64
		for _, r := range rs {
			if r.Order == "Ord" {
				ord = r.Diffs
			} else if r.Diffs > worst {
				worst = r.Diffs
			}
		}
		if ord > worst {
			t.Fatalf("%s: optimizer order has %d diffs, worst random %d", k, ord, worst)
		}
	}
}

func TestFig89Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig8(context.Background(), tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*3*4 {
		t.Fatalf("fig8: %d rows", len(rows))
	}
	rows9, err := Fig9(context.Background(), tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows9) != len(rows) {
		t.Fatalf("fig9: %d rows", len(rows9))
	}
}

func TestFig10Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig10(context.Background(), tinyCfg(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.MaxWork <= 0 {
			t.Fatalf("row %+v has no work", r)
		}
	}
}

func TestCombinations(t *testing.T) {
	cs := combinations(5, 2)
	if len(cs) != 10 {
		t.Fatalf("%d combinations", len(cs))
	}
	cs = combinations(10, 5)
	if len(cs) != 252 {
		t.Fatalf("%d combinations", len(cs))
	}
}

func TestRandomViewSequenceConsistent(t *testing.T) {
	s := randomViewSequence(1000, 600, 10, 50, 30, 9)
	if s.NumViews() != 10 {
		t.Fatal("views")
	}
	present := map[uint32]bool{}
	for t2 := 0; t2 < 10; t2++ {
		if !slices.IsSorted(s.Adds[t2]) || !slices.IsSorted(s.Dels[t2]) {
			t.Fatalf("view %d: difference sets not ascending", t2)
		}
		for _, e := range s.Adds[t2] {
			if present[e] {
				t.Fatalf("view %d: double add of %d", t2, e)
			}
			present[e] = true
		}
		for _, e := range s.Dels[t2] {
			if !present[e] {
				t.Fatalf("view %d: delete of absent %d", t2, e)
			}
			delete(present, e)
		}
	}
	sizes := s.ViewSizes()
	if sizes[0] != 600 {
		t.Fatalf("first view size %d", sizes[0])
	}
}
