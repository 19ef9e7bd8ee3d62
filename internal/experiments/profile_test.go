package experiments

import (
	"context"
	"testing"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
	"graphsurge/internal/view"
)

// BenchmarkPRDiffStep isolates the differential PageRank path for profiling:
// a small-diff collection over a social graph, diff-only.
func BenchmarkPRDiffStep(b *testing.B) {
	base := 30_000
	pool := base * 8 / 5
	g := datagen.Social(datagen.SocialConfig{Nodes: base / 15, Edges: pool, Seed: 42})
	g.Name = "orkut"
	col := view.NewCollection("Csmall", g, randomViewSequence(pool, base, 12, 15, 15, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.RunCollectionContext(context.Background(), col, analytics.PageRank{Iterations: 10}, core.RunOptions{Mode: core.DiffOnly, WeightProp: "w"})
		if err != nil {
			b.Fatal(err)
		}
	}
}
