package view

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	// A view persisted at one graph version fails closed once the graph has
	// moved on without it.
	g.Version++
	if _, err := LoadCollection(dir, "small", lookup); !errors.Is(err, ErrStale) {
		t.Fatalf("stale view: %v", err)
	}
}

// writeCollectionGob writes a crafted collection file, as a corrupted or
// hand-edited data directory would hold it.
func writeCollectionGob(t *testing.T, dir string, cg collectionGob) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cg); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, cg.Name+".collection.gob"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCollectionRejectsCorruptStreams: a collection file whose order is
// not a permutation or whose stream is not a valid difference stream is a
// "corrupt" load error, never a panic and never a collection whose seeds
// would disagree with its diffs. The valid file loads with its EBM rebuilt.
func TestLoadCollectionRejectsCorruptStreams(t *testing.T) {
	dir := t.TempDir()
	g := chainGraph(10)
	lookup := func(string) (*graph.Graph, error) { return g, nil }
	valid := func() collectionGob {
		return collectionGob{Name: "c", Base: "chain", EBMs: 2, Order: []int{1, 0}, Names: []string{"a", "b"},
			Adds: [][]uint32{{1, 3}, {5}}, Dels: [][]uint32{nil, {3}}}
	}
	writeCollectionGob(t, dir, valid())
	c, err := LoadCollection(dir, "c", lookup)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.EBM.Names, []string{"b", "a"}) ||
		!reflect.DeepEqual(c.EBM.Cols[1].AndNot(nil), []uint32{1, 3}) || !reflect.DeepEqual(c.EBM.Cols[0].AndNot(nil), []uint32{1, 5}) {
		t.Fatalf("rebuilt EBM: names %v, columns %v %v", c.EBM.Names, c.EBM.Cols[0].AndNot(nil), c.EBM.Cols[1].AndNot(nil))
	}

	for _, tc := range []struct {
		name string
		edit func(*collectionGob)
	}{
		{"short order", func(cg *collectionGob) { cg.Order = []int{0} }},
		{"order out of range", func(cg *collectionGob) { cg.Order = []int{0, 2} }},
		{"negative order", func(cg *collectionGob) { cg.Order = []int{-1, 0} }},
		{"repeated order", func(cg *collectionGob) { cg.Order = []int{1, 1} }},
		{"view count", func(cg *collectionGob) { cg.EBMs = 3 }},
		{"missing del set", func(cg *collectionGob) { cg.Dels = cg.Dels[:1] }},
		{"unsorted adds", func(cg *collectionGob) { cg.Adds[0] = []uint32{3, 1} }},
		{"repeated add", func(cg *collectionGob) { cg.Adds[0] = []uint32{3, 3} }},
		{"unsorted dels", func(cg *collectionGob) { cg.Adds[1], cg.Dels[1] = nil, []uint32{3, 1} }},
		{"del in the opening view", func(cg *collectionGob) { cg.Dels[0] = []uint32{7} }},
		{"add of a member", func(cg *collectionGob) { cg.Adds[1] = []uint32{1} }},
		{"del of a non-member", func(cg *collectionGob) { cg.Dels[1] = []uint32{4} }},
		{"add out of range", func(cg *collectionGob) { cg.Adds[1] = []uint32{10} }},
		{"del out of range", func(cg *collectionGob) { cg.Dels[1] = []uint32{50} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cg := valid()
			tc.edit(&cg)
			writeCollectionGob(t, dir, cg)
			if _, err := LoadCollection(dir, "c", lookup); err == nil || !strings.Contains(err.Error(), `collection "c" is corrupt`) {
				t.Fatalf("loaded: %v", err)
			}
		})
	}
}

// FuzzLoadCollection: any bytes in a collection file either fail to load or
// load a collection whose rebuilt EBM re-derives the loaded stream exactly.
// Loading never panics.
func FuzzLoadCollection(f *testing.F) {
	g := chainGraph(70) // two bitset words, the second partial
	seedDir := f.TempDir()
	col, err := materializeStmt(g, "create view collection c on chain [a: w < 40], [b: w < 66], [c: w < 2]", Options{Mode: OrderOptimized})
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []*Collection{oneView("v", g, []uint32{0, 3, 64, 69}), col} {
		if err := SaveCollection(seedDir, c); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(seedDir, c.Name+".collection.gob"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	lookup := func(string) (*graph.Graph, error) { return g, nil }
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "f.collection.gob"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadCollection(dir, "f", lookup)
		if err != nil {
			return
		}
		got := MaterializeDiffs(c.EBM, c.Order)
		for v := range c.Stream.NumViews() {
			if got.Names[v] != c.Stream.Names[v] || !slices.Equal(got.Adds[v], c.Stream.Adds[v]) || !slices.Equal(got.Dels[v], c.Stream.Dels[v]) {
				t.Fatalf("view %d: EBM re-derives %s +%v -%v, stream holds %s +%v -%v", v,
					got.Names[v], got.Adds[v], got.Dels[v], c.Stream.Names[v], c.Stream.Adds[v], c.Stream.Dels[v])
			}
		}
	})
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
