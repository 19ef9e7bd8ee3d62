// Graph OLAP with aggregate views (the paper's §6, Listing 4): roll a large
// social network up into city-level super-nodes and super-edges, then drill
// into an explicit group-by of interest — all with GVDL aggregate view
// statements.
//
// Run from the repository root:
//
//	go run ./examples/graph-olap
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"graphsurge/internal/aggregate"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
)

func main() {
	engine, err := core.NewEngine(core.Options{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	g := datagen.Social(datagen.SocialConfig{
		Nodes:     20_000,
		Edges:     120_000,
		Locations: 12,
		Seed:      3,
	})
	g.Name = "social"
	if err := engine.AddGraph(g); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base graph: %d users, %d interactions\n\n", g.NumNodes, g.NumEdges())

	// The City-Calls-City pattern from Listing 4: city super-nodes with
	// member counts, super-edges with total interaction weight.
	sess := engine.NewSession()
	create := func(name, def string) *aggregate.View {
		src := "create view " + name + " on social " + def
		if _, err := sess.Do(context.Background(), &core.StatementsRequest{Src: src}); err != nil {
			log.Fatal(err)
		}
		av, err := engine.AggView(name)
		if err != nil {
			log.Fatal(err)
		}
		return av
	}
	av := create("City-To-City", `
nodes group by city aggregate members: count(*)
edges aggregate total-w: sum(w), strongest: max(affinity)`)
	fmt.Printf("City-To-City: %d super-nodes, %d super-edges\n", len(av.SuperNodes), len(av.SuperEdges))

	type flow struct {
		src, dst string
		w        int64
	}
	keys := map[uint64]string{}
	for _, sn := range av.SuperNodes {
		keys[sn.ID] = "city " + sn.Key
	}
	var flows []flow
	for _, se := range av.SuperEdges {
		flows = append(flows, flow{keys[se.Src], keys[se.Dst], se.Aggs[0]})
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].w > flows[j].w })
	fmt.Println("heaviest inter-city interaction flows:")
	for _, f := range flows[:5] {
		fmt.Printf("  %-8s -> %-8s total weight %d\n", f.src, f.dst, f.w)
	}

	// An explicit predicate grouping, like the NY-Dr-LA-Lawyer triangle of
	// Listing 4: compare the high-affinity core against everyone else in
	// two chosen cities.
	av2 := create("Core-Vs-Rest", `
nodes group by [
(city = 0),
(city = 1)]
aggregate count(*)`)
	fmt.Printf("\nCore-Vs-Rest: %d groups (users outside both cities are dropped)\n", len(av2.SuperNodes))
	for _, sn := range av2.SuperNodes {
		fmt.Printf("  group %q: %d users\n", sn.Key, sn.Size)
	}
	for _, se := range av2.SuperEdges {
		fmt.Printf("  %d interactions from group %d to group %d\n", se.Count, se.Src, se.Dst)
	}
}
