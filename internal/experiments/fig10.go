package experiments

import (
	"context"
	"fmt"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/view"
)

// Fig10Row is one point of the scalability experiment.
type Fig10Row struct {
	Algorithm string
	Workers   int
	Runtime   time.Duration
	// MaxWork is the maximum per-worker record count, the critical-path
	// proxy for distributed scaling on single-core reproduction hardware
	// (see DESIGN.md).
	MaxWork int64
}

// Fig10 reproduces Figure 10 (§7.6): BFS and WCC over the 9-view social
// collection (same city/state/country × low/medium/high affinity), run with
// increasing worker counts standing in for the paper's 1-12 machines. The
// paper's shape is near-linear runtime scaling; on a single-core host the
// wall clock cannot improve, so the per-worker max-work proxy carries the
// scaling signal (it should fall near-linearly with workers), with wall
// clock reported for reference.
func Fig10(ctx context.Context, cfg Config) ([]Fig10Row, error) {
	edges := cfg.scaled(150_000)
	g := datagen.Social(datagen.SocialConfig{
		Nodes:     max(20, edges/15),
		Edges:     edges,
		Locations: 64,
		Seed:      77,
	})
	g.Name = "tw"

	var names []string
	var predSrcs []string
	for _, level := range []string{"city", "state", "country"} {
		for aff := 2; aff >= 0; aff-- {
			names = append(names, fmt.Sprintf("%s-aff%d", level, aff))
			predSrcs = append(predSrcs,
				fmt.Sprintf("src.%s = dst.%s and affinity >= %d", level, level, aff))
		}
	}
	preds := make([]gvdl.Expr, len(predSrcs))
	for i, src := range predSrcs {
		p, err := gvdl.ParsePredicate(src)
		if err != nil {
			return nil, err
		}
		preds[i] = p
	}
	col, err := view.MaterializeFromPredicates("social-9", g, names, preds, nil,
		view.Options{Workers: cfg.workers()})
	if err != nil {
		return nil, err
	}

	algs := []temporalAlg{
		{"BFS", func() analytics.Computation { return analytics.BFS{Source: 0} }},
		{"WCC", func() analytics.Computation { return analytics.WCC{} }},
	}
	var rows []Fig10Row
	for _, a := range algs {
		for _, w := range []int{1, 2, 4, 8, 12} {
			res, err := core.RunCollectionContext(ctx, col, a.mk(), core.RunOptions{Mode: core.DiffOnly, Workers: w})
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig10Row{
				Algorithm: a.name,
				Workers:   w,
				Runtime:   res.Total,
				MaxWork:   res.MaxWork(),
			})
		}
	}
	if cfg.Out != nil {
		fmt.Fprintf(cfg.Out, "Figure 10: scaling over workers, 9-view social collection (|E| = %d)\n", g.NumEdges())
		t := newTable(cfg.Out)
		t.row("Algorithm", "Workers", "runtime (s)", "max-work/worker", "work scaling vs 1")
		base := map[string]int64{}
		for _, r := range rows {
			if r.Workers == 1 {
				base[r.Algorithm] = r.MaxWork
			}
		}
		for _, r := range rows {
			scalingNote := "-"
			if b := base[r.Algorithm]; b > 0 && r.MaxWork > 0 {
				scalingNote = fmt.Sprintf("%.2fx", float64(b)/float64(r.MaxWork))
			}
			t.row(r.Algorithm, r.Workers, secs(r.Runtime), r.MaxWork, scalingNote)
		}
		t.flush()
	}
	return rows, nil
}
