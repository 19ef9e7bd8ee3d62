package experiments

import (
	"context"
	"fmt"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/view"
)

// Table3Row is one cell group of Table 3: an algorithm on one of the three
// citation collections, in all three modes.
type Table3Row struct {
	Algorithm  string
	Collection string
	DiffOnly   time.Duration
	Scratch    time.Duration
	Adaptive   time.Duration
}

// citationCollections builds the paper's three PC-dataset collections via
// GVDL predicates over the citation graph's year/authors properties:
//
//	Csl        — a decade window sliding by 5 years, 16 views
//	Cex-sh-sl  — a window that expands, shrinks, then slides by 1 year
//	Caut       — the cartesian product of 5-year windows × author-count
//	             windows, whose year boundaries are natural split points
func citationCollections(cfg Config) (*graph.Graph, []*view.Collection, error) {
	papers := cfg.scaled(30_000)
	g := datagen.Citation(datagen.CitationConfig{
		Papers:   papers,
		AvgCites: 5,
		YearFrom: 1936,
		YearTo:   2020,
		Seed:     13,
	})
	g.Name = "pc"

	mk := func(name string, specs [][2]string) (*view.Collection, error) {
		names := make([]string, len(specs))
		preds := make([]gvdl.Expr, len(specs))
		for i, s := range specs {
			p, err := gvdl.ParsePredicate(s[1])
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, s[0], err)
			}
			names[i], preds[i] = s[0], p
		}
		return view.MaterializeFromPredicates(name, g, names, preds, nil, view.Options{Workers: cfg.workers()})
	}

	yearWindow := func(from, to int) string {
		return fmt.Sprintf("src.year >= %d and src.year <= %d and dst.year >= %d and dst.year <= %d",
			from, to, from, to)
	}

	// Csl: [1936,1945], [1941,1950], ..., [2011,2020].
	var sl [][2]string
	for from := 1936; from+9 <= 2020; from += 5 {
		sl = append(sl, [2]string{fmt.Sprintf("%d-%d", from, from+9), yearWindow(from, from+9)})
	}
	csl, err := mk("Csl", sl)
	if err != nil {
		return nil, nil, err
	}

	// Cex-sh-sl: [1995,2000] expands to [1995,2005], shrinks to [2000,2005],
	// slides to [2005,2010], by one-year steps.
	var ess [][2]string
	for to := 2000; to <= 2005; to++ { // expand
		ess = append(ess, [2]string{fmt.Sprintf("1995-%d", to), yearWindow(1995, to)})
	}
	for from := 1996; from <= 2000; from++ { // shrink
		ess = append(ess, [2]string{fmt.Sprintf("%d-2005", from), yearWindow(from, 2005)})
	}
	for from := 2001; from <= 2005; from++ { // slide
		ess = append(ess, [2]string{fmt.Sprintf("%d-%d", from, from+5), yearWindow(from, from+5)})
	}
	cess, err := mk("Cex-sh-sl", ess)
	if err != nil {
		return nil, nil, err
	}

	// Caut: year windows [1996,2000]..[2016,2020] × author windows
	// [0,5]..[0,25].
	var aut [][2]string
	for from := 1996; from+4 <= 2020; from += 5 {
		for hi := 5; hi <= 25; hi += 5 {
			aut = append(aut, [2]string{
				fmt.Sprintf("%d-%dx0-%d", from, from+4, hi),
				yearWindow(from, from+4) +
					fmt.Sprintf(" and src.authors <= %d and dst.authors <= %d", hi, hi),
			})
		}
	}
	caut, err := mk("Caut", aut)
	if err != nil {
		return nil, nil, err
	}
	return g, []*view.Collection{csl, cess, caut}, nil
}

// Table3 reproduces Table 3 (§7.3): WCC, BFS, SCC and PageRank over the
// three citation-graph collections, comparing diff-only, scratch and the
// adaptive splitting optimizer. The paper's shape: adaptive matches or beats
// the better of the other two everywhere, and on Caut (which has natural
// split points where the year window slides) it beats both.
func Table3(ctx context.Context, cfg Config) ([]Table3Row, error) {
	_, collections, err := citationCollections(cfg)
	if err != nil {
		return nil, err
	}
	algs := []temporalAlg{
		{"WCC", func() analytics.Computation { return analytics.WCC{} }},
		{"BFS", func() analytics.Computation { return analytics.BFS{Source: 0} }},
		{"SCC", func() analytics.Computation { return analytics.SCC{} }},
		{"PR", func() analytics.Computation { return analytics.PageRank{Iterations: 10} }},
	}
	modes := []core.ExecMode{core.DiffOnly, core.Scratch, core.Adaptive}
	var rows []Table3Row
	for _, a := range algs {
		for _, col := range collections {
			res, err := runModes(ctx, col, a.mk, core.RunOptions{Workers: cfg.workers(), WeightProp: "w"}, modes)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table3Row{
				Algorithm:  a.name,
				Collection: col.Name,
				DiffOnly:   res[core.DiffOnly].Total,
				Scratch:    res[core.Scratch].Total,
				Adaptive:   res[core.Adaptive].Total,
			})
		}
	}
	if cfg.Out != nil {
		fmt.Fprintln(cfg.Out, "Table 3: citation-graph collections, adaptive vs diff-only vs scratch")
		t := newTable(cfg.Out)
		t.row("Algorithm", "Collection", "diff (s)", "scratch (s)", "adaptive (s)", "diff/adapt", "scratch/adapt")
		for _, r := range rows {
			t.row(r.Algorithm, r.Collection, secs(r.DiffOnly), secs(r.Scratch), secs(r.Adaptive),
				ratio(r.DiffOnly, r.Adaptive), ratio(r.Scratch, r.Adaptive))
		}
		t.flush()
	}
	return rows, nil
}
