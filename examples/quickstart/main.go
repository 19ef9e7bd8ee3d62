// Quickstart: load the paper's Figure 1 phone-call graph from CSV, define a
// filtered view and a view collection with GVDL, and run weakly connected
// components differentially across the collection.
//
// Run from the repository root:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/gvdl"
)

func main() {
	dir := "examples/quickstart/data"
	if _, err := os.Stat(dir); err != nil {
		dir = "data" // allow running from the example directory
	}

	engine, err := core.NewEngine(core.Options{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	g, err := engine.LoadGraphCSV("Calls",
		filepath.Join(dir, "nodes.csv"), filepath.Join(dir, "edges.csv"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %d customers, %d calls\n", g.Name, g.NumNodes, g.NumEdges())

	// Every operation goes through the session's one typed entry point.
	ctx := context.Background()
	sess := engine.NewSession()
	statements := func(src string) []gvdl.Result {
		resp, err := sess.Do(ctx, &core.StatementsRequest{Src: src})
		if err != nil {
			log.Fatal(err)
		}
		return resp.(*core.StatementsResponse).Results
	}

	// Listing 1: an individual filtered view.
	fmt.Println(statements(`
create view LA-Long-Calls on Calls
edges where src.city = 'LA' and dst.city = 'LA' and duration > 5`)[0])

	// Listing 3 (shortened): a view collection of duration thresholds. Each
	// view contains the calls of at most d minutes.
	fmt.Println(statements(`
create view collection call-analysis on Calls
[D5:  duration <= 5],
[D10: duration <= 10],
[D15: duration <= 15],
[D20: duration <= 20],
[D35: duration <= 35]`)[0])

	// Run WCC once, differentially across all five views.
	resp, err := sess.Do(ctx, &core.RunRequest{
		Collection: "call-analysis",
		Algorithm:  analytics.Spec{Algorithm: "wcc"},
		Options:    core.RunOptions{Mode: core.DiffOnly},
	})
	if err != nil {
		log.Fatal(err)
	}
	res := resp.(*core.RunResult)
	fmt.Printf("\nWCC over %d views in %v:\n", len(res.Stats), res.Total.Round(1000))
	for _, st := range res.Stats {
		fmt.Printf("  %-4s |GV|=%-3d |dC|=%-3d output-diffs=%d\n",
			st.Name, st.ViewSize, st.DiffSize, st.OutputDiffs)
	}

	// Components of the final (complete) view.
	comp := map[int64][]uint64{}
	for vv := range res.FinalResults() {
		comp[vv.Val] = append(comp[vv.Val], vv.V)
	}
	fmt.Printf("\nfinal view has %d weakly connected component(s):\n", len(comp))
	for id, members := range comp {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		fmt.Printf("  component %d: %d customers\n", id, len(members))
	}
}
