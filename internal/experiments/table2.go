package experiments

import (
	"context"
	"fmt"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
	"graphsurge/internal/view"
)

// Table2Row is one cell group of Table 2: an algorithm on a collection, run
// diff-only and from scratch.
type Table2Row struct {
	Collection string
	Algorithm  string
	DiffOnly   time.Duration
	Scratch    time.Duration
}

// Table2 reproduces Table 2 (§5): Bellman-Ford and PageRank over two
// synthetic view collections on an Orkut-like social graph — one with tiny
// difference sets (±500 edges per view), one with huge ones (+20% / −15% of
// the base view per view, the paper's 2M/1.5M on 10M edges). The paper's
// shape: BF wins differentially on both; PR wins differentially only on the
// similar collection and loses from-scratch on the dissimilar one.
func Table2(ctx context.Context, cfg Config) ([]Table2Row, error) {
	baseEdges := cfg.scaled(120_000)
	pool := baseEdges * 8 / 5
	nodes := baseEdges / 15
	const views = 20

	g := datagen.Social(datagen.SocialConfig{Nodes: nodes, Edges: pool, Seed: 42})
	g.Name = "orkut"

	// The paper's C1K perturbs ±500 edges of a 10M-edge view (0.005%); the
	// similar collection here scales that proportion to the generated graph
	// (0.01%) so the "highly similar views" regime is preserved. Cbig keeps
	// the paper's +20% / −15% (2M/1.5M on 10M).
	tiny := max(1, baseEdges/10000)
	small := view.NewCollection("Csmall", g,
		randomViewSequence(pool, baseEdges, views, tiny, tiny, 1))
	big := view.NewCollection("Cbig", g,
		randomViewSequence(pool, baseEdges, views, baseEdges/5, baseEdges*3/20, 2))

	algs := []struct {
		name string
		mk   func() analytics.Computation
	}{
		{"BF", func() analytics.Computation { return analytics.SSSP{Source: 0} }},
		{"PR", func() analytics.Computation { return analytics.PageRank{Iterations: 10} }},
	}

	var rows []Table2Row
	for _, col := range []*view.Collection{small, big} {
		for _, a := range algs {
			res, err := runModes(ctx, col, a.mk, core.RunOptions{Workers: cfg.workers(), WeightProp: "w"},
				[]core.ExecMode{core.DiffOnly, core.Scratch})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table2Row{
				Collection: col.Name,
				Algorithm:  a.name,
				DiffOnly:   res[core.DiffOnly].Total,
				Scratch:    res[core.Scratch].Total,
			})
		}
	}

	if cfg.Out != nil {
		fmt.Fprintf(cfg.Out, "Table 2: diff-only vs scratch, %d-view collections on social graph (|E| base = %d)\n", views, baseEdges)
		t := newTable(cfg.Out)
		t.row("|Diff Sets|", "Algorithm", "diff-only (s)", "scratch (s)", "diff/scratch")
		for _, r := range rows {
			t.row(r.Collection, r.Algorithm, secs(r.DiffOnly), secs(r.Scratch), ratio(r.DiffOnly, r.Scratch))
		}
		t.flush()
	}
	return rows, nil
}
