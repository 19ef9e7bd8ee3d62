// Contingency (perturbation) analysis, the paper's Example 2: a power-grid
// operator takes a static snapshot of the grid and builds one view per
// failure scenario — here, every pair of transmission corridors failing
// together — then checks connectivity and path lengths under each scenario.
// The view predicates share no obvious order, so the collection ordering
// optimizer is what makes the difference stream small.
//
// Run from the repository root:
//
//	go run ./examples/contingency
package main

import (
	"context"
	"fmt"
	"log"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/view"
)

func main() {
	// Model the grid as a community graph: communities are regional
	// sub-grids ("corridors") with dense internal wiring and sparse ties.
	g := datagen.Community(datagen.CommunityConfig{
		Nodes:       4_000,
		Communities: 8,
		IntraDeg:    5,
		InterDeg:    1,
		Seed:        9,
	})
	g.Name = "grid"

	ci, _ := g.NodeProps.ColumnIndex("community")
	comm := g.NodeProps.Cols[ci].Ints

	// One view per failure scenario: corridors a and b are lesioned — every
	// line touching them is removed.
	var names []string
	var preds []gvdl.Expr
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			a, b := int64(a), int64(b)
			names = append(names, fmt.Sprintf("fail-%d-%d", a, b))
			preds = append(preds, gvdl.Func(func(i int) bool {
				cs, cd := comm[g.Srcs[i]], comm[g.Dsts[i]]
				return cs != a && cs != b && cd != a && cd != b
			}))
		}
	}

	for _, mode := range []view.OrderingMode{view.OrderAsWritten, view.OrderOptimized} {
		col, err := view.MaterializeFromPredicates("scenarios", g, names, preds, nil, view.Options{
			Workers: 2,
			Mode:    mode,
		})
		if err != nil {
			log.Fatal(err)
		}
		label := "as written"
		if mode == view.OrderOptimized {
			label = "optimized "
		}
		fmt.Printf("order %s: %2d scenarios, %7d edge diffs (created in %v)\n",
			label, col.Stream.NumViews(), col.Stream.TotalDiffs(), col.Timings.Total().Round(1000))

		if mode != view.OrderOptimized {
			continue
		}
		// Connectivity under every scenario, shared differentially: register
		// the programmatic collection and run it through a session.
		engine, err := core.NewEngine(core.Options{Workers: 1})
		if err != nil {
			log.Fatal(err)
		}
		if err := engine.AddCollection(col); err != nil {
			log.Fatal(err)
		}
		resp, err := engine.NewSession().Do(context.Background(), &core.RunRequest{
			Collection: col.Name,
			Algorithm:  analytics.Spec{Algorithm: "wcc"},
			Options:    core.RunOptions{Mode: core.Adaptive},
		})
		if err != nil {
			log.Fatal(err)
		}
		res := resp.(*core.RunResult)
		fmt.Printf("\nWCC across all %d scenarios in %v (adaptive, %d splits)\n",
			len(res.Stats), res.Total.Round(1000), res.Splits)

		// Report the scenarios that fragment the grid the most: more
		// output diffs means the lesion changed connectivity for more
		// buses.
		worstIdx, worst := 0, 0
		for i, st := range res.Stats[1:] {
			if st.OutputDiffs > worst {
				worstIdx, worst = i+1, st.OutputDiffs
			}
		}
		fmt.Printf("most disruptive scenario: %s (%d connectivity changes)\n",
			col.Stream.Names[worstIdx], worst)
	}
}
