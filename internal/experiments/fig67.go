package experiments

import (
	"context"
	"fmt"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
	"graphsurge/internal/graph"
	"graphsurge/internal/view"
)

// FigRow is one bar group of Figures 6/7: an algorithm on one collection,
// run in all three modes (diff-only, scratch, adaptive).
type FigRow struct {
	Algorithm string
	Window    string
	Views     int
	DiffOnly  time.Duration
	Scratch   time.Duration
	Adaptive  time.Duration
}

// temporalAlg pairs an algorithm name with its constructor.
type temporalAlg struct {
	name string
	mk   func() analytics.Computation
}

// temporalAlgs are the four algorithms of Figures 6 and 7.
func temporalAlgs() []temporalAlg {
	return []temporalAlg{
		{"WCC", func() analytics.Computation { return analytics.WCC{} }},
		{"BFS", func() analytics.Computation { return analytics.BFS{Source: 0} }},
		{"SCC", func() analytics.Computation { return analytics.SCC{} }},
		{"PR", func() analytics.Computation { return analytics.PageRank{Iterations: 10} }},
	}
}

// temporalDays is the timestamp range of the SO-like graph; windows below
// are in these "days".
const temporalDays = 400

func newTemporalGraph(cfg Config) (*graph.Graph, int) {
	edges := cfg.scaled(40_000)
	g := datagen.Temporal(datagen.TemporalConfig{
		Nodes: max(20, edges/10),
		Edges: edges,
		Days:  temporalDays,
		Seed:  7,
	})
	g.Name = "so"
	dayCol, _ := g.EdgeProps.ColumnIndex("ts")
	return g, dayCol
}

func runFig(ctx context.Context, cfg Config, title string, collections []*view.Collection) ([]FigRow, error) {
	modes := []core.ExecMode{core.DiffOnly, core.Scratch, core.Adaptive}
	var rows []FigRow
	for _, a := range temporalAlgs() {
		for _, col := range collections {
			res, err := runModes(ctx, col, a.mk, core.RunOptions{Workers: cfg.workers()}, modes)
			if err != nil {
				return nil, err
			}
			rows = append(rows, FigRow{
				Algorithm: a.name,
				Window:    col.Name,
				Views:     col.Stream.NumViews(),
				DiffOnly:  res[core.DiffOnly].Total,
				Scratch:   res[core.Scratch].Total,
				Adaptive:  res[core.Adaptive].Total,
			})
		}
	}
	if cfg.Out != nil {
		fmt.Fprintln(cfg.Out, title)
		t := newTable(cfg.Out)
		t.row("Algorithm", "w", "views", "diff-only (s)", "scratch (s)", "adaptive (s)", "scratch/diff")
		for _, r := range rows {
			t.row(r.Algorithm, r.Window, r.Views, secs(r.DiffOnly), secs(r.Scratch), secs(r.Adaptive),
				ratio(r.Scratch, r.DiffOnly))
		}
		t.flush()
	}
	return rows, nil
}

// Fig6 reproduces Figure 6 (§7.2): the Csim collections — an initial
// half-range window expanded by w per view until the end of the dataset, for
// five window sizes. Smaller w means more, more-similar views; the paper's
// shape is an increasing diff-only advantage as w shrinks, with PageRank the
// least-stable exception, and adaptive tracking the better strategy.
func Fig6(ctx context.Context, cfg Config) ([]FigRow, error) {
	g, dayCol := newTemporalGraph(cfg)
	const start = temporalDays / 2
	var collections []*view.Collection
	for _, w := range []int{5, 10, 30, 60, 120} {
		var windows [][2]int64
		var names []string
		for hi := start; hi <= temporalDays; hi += w {
			windows = append(windows, [2]int64{0, int64(hi)})
			names = append(names, fmt.Sprintf("0..%d", hi))
		}
		col := view.NewCollection(fmt.Sprintf("w=%dd", w), g, windowStream(g, dayCol, windows, names))
		collections = append(collections, col)
	}
	return runFig(ctx, cfg, fmt.Sprintf("Figure 6: Csim expanding windows on temporal graph (|E| = %d)", g.NumEdges()), collections)
}

// Fig7 reproduces Figure 7 (§7.2): the Cno collections — completely
// non-overlapping sliding windows of size w. The paper's shape: scratch wins
// modestly (≤ ~2.5x) and the advantage does not grow with the number of
// views; adaptive tracks scratch.
func Fig7(ctx context.Context, cfg Config) ([]FigRow, error) {
	g, dayCol := newTemporalGraph(cfg)
	var collections []*view.Collection
	for _, w := range []int{40, 50, 80, 100, 200} {
		var windows [][2]int64
		var names []string
		for lo := 0; lo+w <= temporalDays; lo += w {
			windows = append(windows, [2]int64{int64(lo), int64(lo + w)})
			names = append(names, fmt.Sprintf("%d..%d", lo, lo+w))
		}
		col := view.NewCollection(fmt.Sprintf("w=%dd", w), g, windowStream(g, dayCol, windows, names))
		collections = append(collections, col)
	}
	return runFig(ctx, cfg, fmt.Sprintf("Figure 7: Cno non-overlapping windows on temporal graph (|E| = %d)", g.NumEdges()), collections)
}
