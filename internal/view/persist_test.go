package view

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graphsurge/internal/graph"
)

// oneView wraps an edge list as a filtered view: a collection of one view.
func oneView(name string, g *graph.Graph, edges []uint32) *Collection {
	return NewCollection(name, g, &DiffStream{Names: []string{name}, Adds: [][]uint32{edges}, Dels: [][]uint32{nil}})
}

func TestViewPersistence(t *testing.T) {
	dir := t.TempDir()
	g := chainGraph(50)
	f := oneView("small", g, []uint32{1, 3, 5})
	f.PredSrcs, f.On = []string{"w < 6"}, "parent"
	if err := SaveCollection(dir, f); err != nil {
		t.Fatal(err)
	}
	lookup := func(name string) (*graph.Graph, error) {
		if name != "chain" {
			return nil, fmt.Errorf("no graph %q", name)
		}
		return g, nil
	}
	got, err := LoadCollection(dir, "small", lookup)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "small" || got.Stream.NumViews() != 1 || !reflect.DeepEqual(got.Stream.Adds[0], []uint32{1, 3, 5}) {
		t.Fatalf("round trip: %+v", got)
	}
	if !reflect.DeepEqual(got.PredSrcs, f.PredSrcs) || got.On != "parent" || got.Version != g.Version {
		t.Fatalf("maintenance metadata lost: %+v", got)
	}
	if m := got.Members(); !m.Get(3) || m.Get(4) {
		t.Fatal("membership of a loaded view")
	}
	if _, err := LoadCollection(dir, "missing", lookup); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	// Unnamed base rejected on save.
	if err := SaveCollection(dir, oneView("bad", &graph.Graph{}, nil)); err == nil {
		t.Fatal("expected error for unnamed base")
	}
	// Out-of-range edge index detected on load, in an add or a delete set.
	bad := oneView("oob", g, []uint32{9999})
	if err := SaveCollection(dir, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCollection(dir, "oob", lookup); err == nil {
		t.Fatal("expected out-of-range error")
	}
	bad.Stream.Adds[0], bad.Stream.Dels[0] = []uint32{1}, []uint32{50}
	if err := SaveCollection(dir, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCollection(dir, "oob", lookup); err == nil {
		t.Fatal("expected out-of-range error for a delete set")
	}
	// A view persisted at one graph version fails closed once the graph has
	// moved on without it.
	g.Version++
	if _, err := LoadCollection(dir, "small", lookup); !errors.Is(err, ErrStale) {
		t.Fatalf("stale view: %v", err)
	}
}

// TestLegacyViewFileFailsClosed: a leftover file of the retired single-view
// format is a load error that tells the operator what to do — never absence,
// which would let the name silently resolve to something else.
func TestLegacyViewFileFailsClosed(t *testing.T) {
	dir := t.TempDir()
	g := chainGraph(10)
	lookup := func(string) (*graph.Graph, error) { return g, nil }
	if err := os.WriteFile(filepath.Join(dir, `old.view.gob`), []byte("whatever it held"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCollection(dir, "old", lookup)
	if err == nil || errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), "re-create the view") {
		t.Fatalf("leftover legacy view file: %v", err)
	}
	// Re-creating the view under the same name clears it.
	if err := SaveCollection(dir, oneView("old", g, []uint32{2})); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCollection(dir, "old", lookup); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionPersistence(t *testing.T) {
	dir := t.TempDir()
	g := chainGraph(100)
	col, err := materializeStmt(g, "create view collection c on chain [a: w < 40], [b: w < 80]", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCollection(dir, col); err != nil {
		t.Fatal(err)
	}
	lookup := func(string) (*graph.Graph, error) { return g, nil }
	got, err := LoadCollection(dir, "c", lookup)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stream.NumViews() != 2 || got.Stream.TotalDiffs() != col.Stream.TotalDiffs() {
		t.Fatalf("round trip: %d views, %d diffs", got.Stream.NumViews(), got.Stream.TotalDiffs())
	}
	sizes := got.Stream.ViewSizes()
	if sizes[0] != 40 || sizes[1] != 80 {
		t.Fatalf("sizes %v", sizes)
	}
	if _, err := LoadCollection(dir, "missing", lookup); err == nil {
		t.Fatal("expected error for missing collection")
	}
	badLookup := func(string) (*graph.Graph, error) { return nil, fmt.Errorf("gone") }
	if _, err := LoadCollection(dir, "c", badLookup); err == nil {
		t.Fatal("expected error for missing base graph")
	}
}

// TestPersistNameValidation pins the path-traversal guard: names that would
// escape the data directory when joined into a path are rejected on both
// save and load, before any filesystem access.
func TestPersistNameValidation(t *testing.T) {
	dir := t.TempDir()
	g := chainGraph(10)
	lookup := func(string) (*graph.Graph, error) { return g, nil }
	bad := []string{"", ".", "..", "../escape", "a/b", `a\b`, "/abs", `..\win`}
	for _, name := range bad {
		if err := SaveCollection(dir, oneView(name, g, nil)); !errors.Is(err, ErrInvalidName) {
			t.Fatalf("SaveCollection accepted view %q: %v", name, err)
		}
		if err := SaveCollection(dir, &Collection{Name: name, Graph: g, Stream: &DiffStream{}}); err == nil {
			t.Fatalf("SaveCollection accepted %q", name)
		}
		if _, err := LoadCollection(dir, name, lookup); !errors.Is(err, ErrInvalidName) {
			t.Fatalf("LoadCollection accepted %q: %v", name, err)
		}
	}
	// A traversal name must not read files outside the data directory even
	// when a matching file exists there.
	outside := t.TempDir()
	if err := SaveCollection(outside, oneView("x", g, []uint32{1})); err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(dir, filepath.Join(outside, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCollection(dir, rel, lookup); err == nil {
		t.Fatal("traversal name read a view outside the data directory")
	}
	// Ordinary names (including dots inside) still round-trip.
	if err := SaveCollection(dir, oneView("v1.2-ok", g, []uint32{0})); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCollection(dir, "v1.2-ok", lookup); err != nil || len(got.Stream.Adds[0]) != 1 {
		t.Fatalf("round trip of dotted name: %v, %+v", err, got)
	}
}
