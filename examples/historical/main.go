// Historical analysis (the paper's Example 1): study how the connectivity of
// a temporal interaction network evolves by building one view per expanding
// time window and running connected components and shortest paths across all
// windows differentially — the network scientist's "history of the
// connectivity of the graph" workload.
//
// Run from the repository root:
//
//	go run ./examples/historical
package main

import (
	"context"
	"fmt"
	"log"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
)

func main() {
	engine, err := core.NewEngine(core.Options{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}

	// A Stack-Overflow-like temporal graph: every edge has a creation day.
	g := datagen.Temporal(datagen.TemporalConfig{
		Nodes: 3_000,
		Edges: 30_000,
		Days:  365,
		Seed:  2020,
	})
	g.Name = "interactions"
	if err := engine.AddGraph(g); err != nil {
		log.Fatal(err)
	}

	// One view per quarter-end: each view is the network as of that day.
	src := "create view collection history on interactions "
	for q := 1; q <= 8; q++ {
		if q > 1 {
			src += ", "
		}
		src += fmt.Sprintf("[q%d: ts < %d]", q, q*45)
	}
	ctx := context.Background()
	sess := engine.NewSession()
	if _, err := sess.Do(ctx, &core.StatementsRequest{Src: src}); err != nil {
		log.Fatal(err)
	}
	run := func(alg analytics.Spec, mode core.ExecMode) *core.RunResult {
		resp, err := sess.Do(ctx, &core.RunRequest{Collection: "history", Algorithm: alg, Options: core.RunOptions{Mode: mode}})
		if err != nil {
			log.Fatal(err)
		}
		return resp.(*core.RunResult)
	}

	// Connected components per quarter: watch the giant component form.
	res := run(analytics.Spec{Algorithm: "wcc"}, core.DiffOnly)
	col, _ := engine.Collection("history")
	fmt.Printf("connectivity history (%v total, computed differentially):\n", res.Total.Round(1000))
	fmt.Println("quarter  edges   output-diffs")
	for i, st := range res.Stats {
		fmt.Printf("%-8s %-7d %d\n", col.Stream.Names[i], st.ViewSize, st.OutputDiffs)
	}

	// Shortest-path spread from the earliest hub across the same history.
	bfs := run(analytics.Spec{Algorithm: "bfs", Source: 0}, core.Adaptive)
	reached := bfs.FinalResults()
	var maxHops int64
	for vv := range reached {
		if vv.Val > maxHops {
			maxHops = vv.Val
		}
	}
	fmt.Printf("\nBFS from vertex 0 on the final quarter: %d vertices reached, eccentricity %d\n",
		len(reached), maxHops)
	fmt.Printf("adaptive execution made %d split decision(s)\n", bfs.Splits)
}
