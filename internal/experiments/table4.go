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

// Table4Row reports one ordering of one perturbation collection: total edge
// diffs and collection creation time (CCT).
type Table4Row struct {
	Dataset    string
	Collection string
	Order      string
	Diffs      int64
	CCT        time.Duration
}

// Fig89Row reports one algorithm × ordering, with adaptive splitting off and
// on (Figures 8 and 9).
type Fig89Row struct {
	Dataset    string
	Collection string
	Algorithm  string
	Order      string
	NoAdapt    time.Duration
	WithAdapt  time.Duration
}

// combinations enumerates k-subsets of {0..n-1}.
func combinations(n, k int) [][]int {
	var out [][]int
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i <= n-(k-len(cur)); i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// perturbationPredicates builds one predicate per k-subset of the top-N
// communities: the view removes every edge with an endpoint in the subset
// (the paper's §7.4 contingency-analysis workload).
func perturbationPredicates(g *graph.Graph, n, k int) ([]string, []gvdl.Expr) {
	ci, _ := g.NodeProps.ColumnIndex("community")
	comm := g.NodeProps.Cols[ci].Ints
	srcs, dsts := g.Srcs, g.Dsts
	var names []string
	var preds []gvdl.Expr
	for _, subset := range combinations(n, k) {
		var mask uint32
		name := ""
		for _, c := range subset {
			mask |= 1 << uint(c)
			name += fmt.Sprintf("%d", c)
		}
		m := mask
		names = append(names, "rm"+name)
		preds = append(preds, gvdl.Func(func(i int) bool {
			return m&(1<<uint(comm[srcs[i]])) == 0 && m&(1<<uint(comm[dsts[i]])) == 0
		}))
	}
	return names, preds
}

// communityDataset bundles a dataset's perturbation collections under every
// ordering.
type communityDataset struct {
	name string
	g    *graph.Graph
	// cols[collection][order] is the materialized collection.
	cols map[string]map[string]*view.Collection
	rows []Table4Row
}

// orderNames are the orderings compared in Table 4 and Figures 8/9.
var orderNames = []string{"Ord", "R1", "R2", "R3"}

func buildCommunityDataset(cfg Config, name string, nodes int, seed int64) (*communityDataset, error) {
	g := datagen.Community(datagen.CommunityConfig{
		Nodes:       nodes,
		Communities: 12,
		IntraDeg:    6,
		InterDeg:    1,
		Seed:        seed,
	})
	g.Name = name
	ds := &communityDataset{name: name, g: g, cols: make(map[string]map[string]*view.Collection)}
	specs := []struct {
		cname string
		n, k  int
	}{
		{"10C5", 10, 5},
		{"7C4", 7, 4},
	}
	for _, sp := range specs {
		names, preds := perturbationPredicates(g, sp.n, sp.k)
		ds.cols[sp.cname] = make(map[string]*view.Collection)
		for oi, oname := range orderNames {
			opts := view.Options{Workers: cfg.workers()}
			if oname == "Ord" {
				opts.Mode = view.OrderOptimized
			} else {
				opts.Mode = view.OrderRandom
				opts.Seed = int64(oi)
			}
			col, err := view.MaterializeFromPredicates(
				fmt.Sprintf("%s-%s-%s", name, sp.cname, oname), g, names, preds, nil, opts)
			if err != nil {
				return nil, err
			}
			ds.cols[sp.cname][oname] = col
			ds.rows = append(ds.rows, Table4Row{
				Dataset:    name,
				Collection: sp.cname,
				Order:      oname,
				Diffs:      col.Stream.TotalDiffs(),
				CCT:        col.Timings.Total(),
			})
		}
	}
	return ds, nil
}

func ljDataset(cfg Config) (*communityDataset, error) {
	return buildCommunityDataset(cfg, "lj", cfg.scaled(3000), 31)
}

func wtcDataset(cfg Config) (*communityDataset, error) {
	return buildCommunityDataset(cfg, "wtc", cfg.scaled(1500), 32)
}

// Table4 reproduces Table 4 (§7.4): the number of edge diffs and the
// collection creation time of the optimizer's order vs three random orders,
// for the C(10,5) and C(7,4) community-removal collections on both
// community graphs. The paper's shape: the optimizer produces several-fold
// fewer diffs at a modest (1.1-1.7x) CCT overhead.
func Table4(ctx context.Context, cfg Config) ([]Table4Row, error) {
	var rows []Table4Row
	for _, build := range []func(Config) (*communityDataset, error){ljDataset, wtcDataset} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ds, err := build(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ds.rows...)
	}
	if cfg.Out != nil {
		fmt.Fprintln(cfg.Out, "Table 4: #diffs and collection creation time, optimizer order vs random orders")
		t := newTable(cfg.Out)
		t.row("Dataset", "Collection", "Order", "#Diffs", "CCT (s)", "diffs vs Ord")
		byKey := map[string]int64{}
		for _, r := range rows {
			if r.Order == "Ord" {
				byKey[r.Dataset+r.Collection] = r.Diffs
			}
		}
		for _, r := range rows {
			base := byKey[r.Dataset+r.Collection]
			rel := "-"
			if base > 0 {
				rel = fmt.Sprintf("%.1fx", float64(r.Diffs)/float64(base))
			}
			t.row(r.Dataset, r.Collection, r.Order, r.Diffs, secs(r.CCT), rel)
		}
		t.flush()
	}
	return rows, nil
}

// fig89Algs are the algorithms of Figures 8 and 9. MPSP pairs are seeded on
// the graph's communities.
func fig89Algs(g *graph.Graph) []temporalAlg {
	n := uint64(g.NumNodes)
	pairs := []analytics.Pair{}
	for i := uint64(0); i < 5; i++ {
		pairs = append(pairs, analytics.Pair{Src: 0, Dst: (i*2797 + 31) % n})
	}
	return []temporalAlg{
		{"WCC", func() analytics.Computation { return analytics.WCC{} }},
		{"BFS", func() analytics.Computation { return analytics.BFS{Source: 0} }},
		{"MPSP", func() analytics.Computation { return analytics.MPSP{Pairs: pairs} }},
	}
}

func runFig89(ctx context.Context, cfg Config, ds *communityDataset, figure string) ([]Fig89Row, error) {
	var rows []Fig89Row
	for _, cname := range []string{"10C5", "7C4"} {
		for _, a := range fig89Algs(ds.g) {
			for _, oname := range orderNames {
				col := ds.cols[cname][oname]
				res, err := runModes(ctx, col, a.mk,
					core.RunOptions{Workers: cfg.workers(), WeightProp: "w"},
					[]core.ExecMode{core.DiffOnly, core.Adaptive})
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig89Row{
					Dataset:    ds.name,
					Collection: cname,
					Algorithm:  a.name,
					Order:      oname,
					NoAdapt:    res[core.DiffOnly].Total,
					WithAdapt:  res[core.Adaptive].Total,
				})
			}
		}
	}
	if cfg.Out != nil {
		fmt.Fprintf(cfg.Out, "%s: runtimes under collection orderings, adaptive off/on (%s)\n", figure, ds.name)
		t := newTable(cfg.Out)
		t.row("Collection", "Algorithm", "Order", "no adapt (s)", "with adapt (s)")
		for _, r := range rows {
			t.row(r.Collection, r.Algorithm, r.Order, secs(r.NoAdapt), secs(r.WithAdapt))
		}
		t.flush()
	}
	return rows, nil
}

// Fig8 reproduces Figure 8 (§7.4): WCC, BFS and MPSP on the LJ-like
// community graph under the optimizer's order vs random orders, with
// adaptive splitting off and on. The paper's shape: ordering wins big
// without adaptive splitting; adaptive narrows but does not erase the gap.
func Fig8(ctx context.Context, cfg Config) ([]Fig89Row, error) {
	ds, err := ljDataset(cfg)
	if err != nil {
		return nil, err
	}
	return runFig89(ctx, cfg, ds, "Figure 8")
}

// Fig9 reproduces Figure 9 (§7.4): the same experiment on the WTC-like
// graph.
func Fig9(ctx context.Context, cfg Config) ([]Fig89Row, error) {
	ds, err := wtcDataset(cfg)
	if err != nil {
		return nil, err
	}
	return runFig89(ctx, cfg, ds, "Figure 9")
}
