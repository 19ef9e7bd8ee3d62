package core

import (
	"context"
	"fmt"
	"testing"

	"graphsurge/internal/analytics"
	"graphsurge/internal/datagen"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/view"
)

// mixedCollection builds a collection with alternating similar and
// dissimilar stretches — the workload where split placement matters.
func mixedCollection(b *testing.B) *view.Collection {
	b.Helper()
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 800, Edges: 8000, Days: 200, Seed: 11})
	g.Name = "t"
	dayCol, _ := g.EdgeProps.ColumnIndex("ts")
	days := g.EdgeProps.Cols[dayCol].Ints
	// Three disjoint eras, each expanded in four steps: expansions are
	// similar, era boundaries are natural split points (like Caut).
	var names []string
	var preds []gvdl.Expr
	for era := 0; era < 3; era++ {
		lo := int64(era * 66)
		for step := 1; step <= 4; step++ {
			hi := lo + int64(step*16)
			names = append(names, fmt.Sprintf("e%d-%d", era, step))
			preds = append(preds, gvdl.Func(func(i int) bool { return days[i] >= lo && days[i] < hi }))
		}
	}
	col, err := view.MaterializeFromPredicates("mixed", g, names, preds, nil, view.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return col
}

// BenchmarkBatchSizeAblation quantifies the splitting optimizer's batch
// parameter ℓ (paper §5 uses 10): per-view decisions (ℓ=1) versus batched
// ones on a collection with natural split points.
func BenchmarkBatchSizeAblation(b *testing.B) {
	col := mixedCollection(b)
	for _, batch := range []int{1, 4, 10} {
		b.Run(fmt.Sprintf("l-%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{Mode: Adaptive, BatchSize: batch})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Splits), "splits")
			}
		})
	}
}

// BenchmarkModeAblation runs the same mixed collection under all three
// execution strategies, the micro version of Table 3.
func BenchmarkModeAblation(b *testing.B) {
	col := mixedCollection(b)
	for _, mode := range []ExecMode{DiffOnly, Scratch, Adaptive} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{Mode: mode}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
