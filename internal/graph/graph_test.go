package graph

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFile is a test helper creating a file with contents.
func writeFile(t *testing.T, dir, name, contents string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const callNodes = `id,city:string,profession:string
1,LA,Engineer
2,LA,Doctor
3,LA,Engineer
4,NY,Lawyer
5,NY,Doctor
6,LA,Engineer
7,NY,Lawyer
8,LA,Lawyer
`

const callEdges = `src,dst,duration:int,year:int
1,2,7,2015
1,3,12,2017
2,5,19,2019
3,6,7,2018
4,7,4,2019
5,4,13,2019
6,1,1,2010
7,8,34,2019
8,5,18,2019
`

// LoadFig1 loads the paper's Figure 1 phone call graph fixture.
func loadFig1(t *testing.T) *Graph {
	t.Helper()
	dir := t.TempDir()
	np := writeFile(t, dir, "nodes.csv", callNodes)
	ep := writeFile(t, dir, "edges.csv", callEdges)
	g, err := LoadCSV("Calls", np, ep)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLoadCSV(t *testing.T) {
	g := loadFig1(t)
	if g.NumNodes != 8 || g.NumEdges() != 9 {
		t.Fatalf("loaded %d nodes, %d edges", g.NumNodes, g.NumEdges())
	}
	ci, ok := g.NodeProps.ColumnIndex("city")
	if !ok {
		t.Fatal("no city column")
	}
	// External id "1" became internal 0.
	if got := g.NodeProps.Value(0, ci); got.S != "LA" {
		t.Fatalf("node 0 city = %v", got)
	}
	di, ok := g.EdgeProps.ColumnIndex("duration")
	if !ok || g.EdgeProps.Cols[di].Type != TypeInt {
		t.Fatal("duration column missing or not int")
	}
	if g.EdgeProps.Value(0, di).I != 7 {
		t.Fatalf("edge 0 duration = %v", g.EdgeProps.Value(0, di))
	}
}

func TestTripleAndWeightColumn(t *testing.T) {
	g := loadFig1(t)
	wc, err := g.WeightColumn("duration")
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Triple(0, wc)
	if tr.W != 7 {
		t.Fatalf("weighted triple = %+v", tr)
	}
	tr = g.Triple(0, -1)
	if tr.W != 1 {
		t.Fatalf("unit triple = %+v", tr)
	}
	if _, err := g.WeightColumn("city"); err == nil {
		t.Fatal("expected error for non-edge property")
	}
	if _, err := g.WeightColumn("nope"); err == nil {
		t.Fatal("expected error for missing property")
	}
	if wc, err := g.WeightColumn(""); err != nil || wc != -1 {
		t.Fatalf("empty weight column: %d, %v", wc, err)
	}
}

func TestLoadCSVWithoutNodeFile(t *testing.T) {
	dir := t.TempDir()
	ep := writeFile(t, dir, "edges.csv", "src,dst,w:int\na,b,1\nb,c,2\n")
	g, err := LoadCSV("g", "", ep)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes, g.NumEdges())
	}
}

func TestLoadCSVErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name         string
		nodes, edges string
		want         string // a substring of the error, when it matters
	}{
		{"bad node header", "nope,city\n", "src,dst\n", ""},
		{"bad edge header", "id\nx\n", "source,dst\n", ""},
		{"bad type", "id,age:float\nx,1\n", "src,dst\n", ""},
		{"bad int", "id,age:int\nx,notanint\n", "src,dst\n", ""},
		{"bad bool", "id,ok:bool\nx,maybe\n", "src,dst\n", ""},
		{"missing endpoint", "id\na\n", "src,dst\na,zzz\n", `line 2: edge endpoint "zzz" not in node file`},
		{"missing source", "id\na\nb\n", "src,dst\na,b\nyyy,a\n", `line 3: edge endpoint "yyy" not in node file`},
		{"wrong field count", "id,age:int\na,1,extra\n", "src,dst\n", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			np := writeFile(t, dir, "n_"+c.name+".csv", c.nodes)
			ep := writeFile(t, dir, "e_"+c.name+".csv", c.edges)
			_, err := LoadCSV("g", np, ep)
			if err == nil {
				t.Fatalf("expected error for %s", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %q", err, c.want)
			}
		})
	}
}

func TestValidate(t *testing.T) {
	g := &Graph{Name: "bad", NumNodes: 2, Srcs: []uint64{0, 1}, Dsts: []uint64{1, 5}}
	if err := g.Validate(); err == nil {
		t.Fatal("expected out-of-range endpoint error")
	}
	g = &Graph{Name: "bad2", NumNodes: 2, Srcs: []uint64{0}, Dsts: []uint64{}}
	if err := g.Validate(); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := loadFig1(t)
	if err := st.Add(g); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory finds the graph on disk.
	st2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := st2.Graph("Calls")
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumNodes != g.NumNodes {
		t.Fatal("persisted graph differs")
	}
	ci, _ := g2.NodeProps.ColumnIndex("city")
	if g2.NodeProps.Value(0, ci).S != "LA" {
		t.Fatal("persisted node property differs")
	}
	if _, err := st2.Graph("nope"); err == nil {
		t.Fatal("expected error for unknown graph")
	}
	if got := st.Names(); len(got) != 1 || got[0] != "Calls" {
		t.Fatalf("Names = %v", got)
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	st, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(&Graph{}); err == nil {
		t.Fatal("expected error for unnamed graph")
	}
	g := &Graph{Name: "g", NumNodes: 1}
	if err := st.Add(g); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Graph("g"); err != nil || got != g {
		t.Fatal("lookup failed")
	}
}

func TestValueHelpers(t *testing.T) {
	if IntValue(3).String() != "3" || StringValue("x").String() != "x" || BoolValue(true).String() != "true" {
		t.Fatal("value String()")
	}
	if !IntValue(3).Equal(IntValue(3)) || IntValue(3).Equal(IntValue(4)) {
		t.Fatal("value Equal()")
	}
	if TypeInt.String() != "int" || TypeString.String() != "string" || TypeBool.String() != "bool" {
		t.Fatal("PropType String()")
	}
}

// TestStoreRejectsTraversalNames pins the disk-path guard: graph names that
// would escape the store directory are refused by persist and the disk
// fallback (never reading or writing outside it), while subdirectory names
// without traversal keep working and memory-only stores are unrestricted.
func TestStoreRejectsTraversalNames(t *testing.T) {
	dir := t.TempDir()
	outside := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *Graph {
		return &Graph{Name: name, NumNodes: 2, Srcs: []uint64{0}, Dsts: []uint64{1}}
	}
	for _, name := range []string{"../escape", "a/../../escape", `a\b`} {
		if err := s.Add(mk(name)); err == nil {
			t.Fatalf("Add accepted traversal name %q", name)
		}
		if _, err := s.Graph(name); err == nil {
			t.Fatalf("Graph resolved traversal name %q from disk", name)
		}
	}
	// Nothing escaped: a matching file outside the store stays unread and
	// the outside directory stays empty of writes.
	if entries, _ := os.ReadDir(outside); len(entries) != 0 {
		t.Fatalf("store wrote outside its directory: %v", entries)
	}
	// A failed Add leaves no phantom in-memory graph either.
	if _, err := s.Graph("../escape"); err == nil {
		t.Fatal("phantom graph registered despite rejected persist")
	}
	// Subdirectory names without traversal still work once the dir exists.
	if err := os.MkdirAll(filepath.Join(dir, "team"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(mk("team/g")); err != nil {
		t.Fatalf("subdirectory name rejected: %v", err)
	}
	if _, err := s.Graph("team/g"); err != nil {
		t.Fatal(err)
	}
	// Memory-only stores accept any name.
	mem, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Add(mk("../whatever")); err != nil {
		t.Fatalf("memory-only store rejected a name: %v", err)
	}
}
