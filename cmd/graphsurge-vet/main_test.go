package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetCatchesSeededRegressions is the lint suite's own regression test:
// it copies the repository source to a scratch directory, re-introduces
// historical bug shapes — a context.TODO() severing the worker's cancellation
// chain, a dropped Pool.Release, and a shard-span End demoted to the happy
// path only — and asserts
// that a graphsurge-vet run
// over the mutated packages fails naming the right analyzer. A clean copy
// must vet clean first, so the test also pins that the tool has no spurious
// findings on the shipped tree.
func TestVetCatchesSeededRegressions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and vets a scratch copy of the repository")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	copyTree(t, root, scratch)

	tool := filepath.Join(t.TempDir(), "graphsurge-vet")
	if out, err := run(scratch, goTool, "build", "-o", tool, "./cmd/graphsurge-vet"); err != nil {
		t.Fatalf("building graphsurge-vet: %v\n%s", err, out)
	}
	vet := func(pkg string) (string, error) {
		return run(scratch, goTool, "vet", "-vettool="+tool, pkg)
	}

	// The unmutated copy must be clean — a finding here is either a rot in
	// the tree or a false positive in an analyzer, and both would make the
	// seeded assertions below meaningless.
	for _, pkg := range []string{"./internal/cluster/", "./internal/analytics/"} {
		if out, err := vet(pkg); err != nil {
			t.Fatalf("clean copy flagged in %s: %v\n%s", pkg, err, out)
		}
	}

	seeds := []struct {
		name     string // analyzer expected to fire
		file     string // file to mutate, relative to the repo root
		pkg      string // package to vet after mutating
		anchor   string // unique source text the mutation replaces
		mutation string
	}{
		{
			name:     "ctxflow",
			file:     filepath.Join("internal", "cluster", "worker.go"),
			pkg:      "./internal/cluster/",
			anchor:   "ctx := s.ctx",
			mutation: "ctx := context.TODO()",
		},
		{
			name:     "poolrelease",
			file:     filepath.Join("internal", "analytics", "pool_test.go"),
			pkg:      "./internal/analytics/",
			anchor:   "\tp.Release(r1)\n",
			mutation: "",
		},
		{
			name:     "spanend",
			file:     filepath.Join("internal", "cluster", "coordinator.go"),
			pkg:      "./internal/cluster/",
			anchor:   "runSegment(sctx, spec)\n\tspan.End()\n",
			mutation: "runSegment(sctx, spec)\n\tif err == nil {\n\t\tspan.End()\n\t}\n",
		},
	}
	for _, seed := range seeds {
		t.Run(seed.name, func(t *testing.T) {
			path := filepath.Join(scratch, seed.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(orig)
			if !strings.Contains(src, seed.anchor) {
				t.Fatalf("seed anchor %q no longer in %s — update the regression seed", seed.anchor, seed.file)
			}
			mutated := strings.Replace(src, seed.anchor, seed.mutation, 1)
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			out, err := vet(seed.pkg)
			if err == nil {
				t.Fatalf("vet passed the seeded %s regression in %s", seed.name, seed.file)
			}
			if !strings.Contains(out, "("+seed.name+")") {
				t.Fatalf("vet failed but not via %s:\n%s", seed.name, out)
			}
			if !strings.Contains(out, filepath.Base(seed.file)) {
				t.Fatalf("diagnostic does not point at %s:\n%s", seed.file, out)
			}
		})
	}
}

// run executes a command in dir, returning its combined output.
func run(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// copyTree copies the repository's source files into dst, skipping VCS
// metadata and build output — enough of the tree to `go build` and `go vet`
// any package in the module.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "bin" {
				return filepath.SkipDir
			}
			if rel == "." {
				return nil
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
