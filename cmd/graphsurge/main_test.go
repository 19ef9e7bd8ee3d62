package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphsurge/internal/analytics"
	"graphsurge/internal/cluster"
	"graphsurge/internal/core"
)

func TestAlgorithmSelection(t *testing.T) {
	for _, name := range []string{"wcc", "bfs", "sssp", "bellman-ford", "pagerank", "pr", "scc", "degree"} {
		comp, err := algorithm(name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if comp.Name() == "" {
			t.Fatalf("%s: empty name", name)
		}
	}
	if _, err := algorithm("nope", 0); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	comp, _ := algorithm("bfs", 42)
	if comp.(analytics.BFS).Source != 42 {
		t.Fatal("source not threaded through")
	}
}

func TestCommandsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	nodes := filepath.Join(dir, "nodes.csv")
	edges := filepath.Join(dir, "edges.csv")
	if err := os.WriteFile(nodes, []byte("id,kind:string\na,x\nb,x\nc,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(edges, []byte("src,dst,w:int\na,b,1\nb,c,2\nc,a,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := cmdLoad([]string{"-name", "g", "-nodes", nodes, "-edges", edges, "-data", data}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-data", data, "create view v on g edges where w > 1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{
		"-data", data,
		"-gvdl", "create view collection c on g [a: w >= 1], [b: w >= 2]",
		"-collection", "c",
		"-algorithm", "wcc",
		"-mode", "diff",
	}); err != nil {
		t.Fatal(err)
	}
	// Parallel segment dispatch with per-segment timing output.
	if err := cmdRun([]string{
		"-data", data,
		"-collection", "c",
		"-algorithm", "wcc",
		"-mode", "scratch",
		"-parallel", "2",
	}); err != nil {
		t.Fatal(err)
	}
	// Largest-first dispatch, and an adaptive run on the paced parallel
	// planner.
	if err := cmdRun([]string{
		"-data", data,
		"-collection", "c",
		"-algorithm", "wcc",
		"-mode", "scratch",
		"-parallel", "2",
		"-schedule", "lpt",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{
		"-data", data,
		"-collection", "c",
		"-algorithm", "wcc",
		"-mode", "adaptive",
		"-parallel", "2",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-data", data, "-collection", "c", "-schedule", "bogus"}); err == nil {
		t.Fatal("expected error for bad schedule policy")
	}
	// A traversal view name is rejected, not read from outside the data dir.
	if err := cmdRun([]string{"-data", data, "-view", "../escape", "-algorithm", "wcc"}); err == nil {
		t.Fatal("expected error for traversal view name")
	}
	// Individual view runs.
	if err := cmdRun([]string{
		"-data", data,
		"-gvdl", "create view heavy on g edges where w >= 2",
		"-view", "heavy",
		"-algorithm", "degree",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-data", data, "-view", "nope", "-algorithm", "wcc"}); err == nil {
		t.Fatal("expected error for unknown view")
	}
	// Error paths.
	if err := cmdLoad([]string{"-edges", edges}); err == nil {
		t.Fatal("expected error for missing -name")
	}
	if err := cmdRun([]string{"-data", data}); err == nil {
		t.Fatal("expected error for missing -collection")
	}
	if err := cmdRun([]string{"-data", data, "-collection", "c", "-mode", "bogus"}); err == nil {
		t.Fatal("expected error for bad mode")
	}
	if err := cmdRun([]string{"-data", data, "-collection", "c", "-algorithm", "bogus"}); err == nil {
		t.Fatal("expected error for bad algorithm")
	}
	if err := cmdQuery([]string{"-data", data}); err == nil {
		t.Fatal("expected error for missing statements")
	}
}

// TestClusterRunEndToEnd drives the -cluster flag against two in-process
// worker servers: load, materialize, then shard a scratch run across the
// workers and check it against the same run executed locally.
func TestClusterRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	edges := filepath.Join(dir, "edges.csv")
	if err := os.WriteFile(edges, []byte("src,dst,w:int\na,b,1\nb,c,2\nc,a,3\nc,d,1\nd,a,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdLoad([]string{"-name", "g", "-edges", edges, "-data", data}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-data", data,
		"create view collection cc on g [a: w >= 1], [b: w >= 2], [c: w >= 3], [d: w >= 1]"}); err != nil {
		t.Fatal(err)
	}

	var addrs []string
	for i := 0; i < 2; i++ {
		eng, err := core.NewEngine(core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv := cluster.NewServer(eng, 1)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(l)
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, l.Addr().String())
	}

	if err := cmdRun([]string{
		"-data", data,
		"-collection", "cc",
		"-algorithm", "wcc",
		"-mode", "scratch",
		"-cluster", strings.Join(addrs, ","),
	}); err != nil {
		t.Fatal(err)
	}
	// A bad worker address fails registration rather than running silently
	// degraded.
	if err := cmdRun([]string{
		"-data", data, "-collection", "cc", "-algorithm", "wcc",
		"-mode", "scratch", "-cluster", "127.0.0.1:1",
	}); err == nil {
		t.Fatal("expected error for unreachable worker")
	}
}
