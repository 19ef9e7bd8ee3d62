package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"graphsurge/internal/core"
)

// equivalenceMatrix is the paper's contract checked from outside: for every
// algorithm of a workload's suite, the final view's results must be the same
// under diff-only, scratch, adaptive, cluster, incremental and HTTP
// execution, and equal to a from-scratch run over the last view alone. It
// runs on a smoke-scale graph of the workload's seed and window shape, so
// every strategy is affordable in every run; the workload's own strategy is
// checked against the reference at full scale by its verify.
func equivalenceMatrix(ctx context.Context, r *recorder, s collSpec, e env) {
	e.sc = smokeScale
	e.dir = filepath.Join(e.dir, "matrix")
	s.cluster, s.parallelism = true, 2
	err := os.MkdirAll(e.dir, 0o755)
	var inst instance
	if err == nil {
		inst, err = s.setup(ctx, e)
	}
	if err != nil {
		r.check("equivalence set-up", err)
		return
	}
	defer inst.close()
	m := inst.(*collInst)
	front, err := startFrontend(m.eng)
	if err != nil {
		r.check("equivalence set-up", err)
		return
	}
	defer front.close()
	last := s.windows[len(s.windows)-1]
	r.check("equivalence reference view", statements(ctx, m.sess, viewGVDL("lastview", graphName, last)))

	strategies := []struct {
		name      string
		opts      core.RunOptions
		clustered bool
	}{
		{"diff-only", core.RunOptions{Mode: core.DiffOnly}, false},
		{"scratch", core.RunOptions{Mode: core.Scratch, Parallelism: 2}, false},
		{"adaptive", core.RunOptions{Mode: core.Adaptive}, false},
		{"cluster", core.RunOptions{Mode: core.Scratch, Parallelism: 2}, true},
		{"incremental", core.RunOptions{Incremental: true}, false},
	}
	for i := range m.algs {
		a := &m.algs[i]
		ref, err := viewDigest(ctx, m.sess, "lastview", a)
		if err != nil {
			r.check("equivalence reference "+a.name, err)
			continue
		}
		a.want = expect{set: true, d: ref}
		for _, st := range strategies {
			req := &core.RunRequest{Collection: collName, Algorithm: a.spec, Options: st.opts}
			req.Options.WeightProp = a.weight
			if st.clustered {
				req.Runner = m.workers.coord
			}
			_, d, err := runDigest(ctx, m.sess, req)
			if err == nil {
				err = a.want.match(st.name, d)
			}
			r.check(fmt.Sprintf("equivalence %s %s", a.name, st.name), err)
		}
		out, err := front.run(ctx, collName, a, core.DiffOnly)
		if err == nil {
			err = a.want.match("http", out.d)
		}
		r.check(fmt.Sprintf("equivalence %s http", a.name), err)
	}
}
