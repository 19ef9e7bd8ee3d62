// Package aggregate implements Graphsurge's aggregate views (paper §6), the
// Graph OLAP-style summaries: nodes are grouped into super-nodes either by
// the values of a set of node properties or by membership in an ordered list
// of predicates, original edges are rolled up into super-edges between the
// groups, and aggregate properties (count, sum, min, max, avg) are computed
// on both. Evaluation is a plain hash group-by: one pass over the nodes folds
// per-group accumulators and one pass over the live edges folds accumulators
// per (group(src), group(dst)) pair, so evaluating a view — at creation, at
// reload and after every mutation of its base graph — costs O(|V|+|E|).
package aggregate

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
)

// SuperNode is one node group of an aggregate view.
type SuperNode struct {
	ID   uint64
	Key  string // property values ("LA") or predicate text for display
	Size int64  // number of member nodes
	Aggs []int64
}

// SuperEdge is the rollup of original edges between two groups.
type SuperEdge struct {
	Src, Dst uint64
	Count    int64 // number of original edges aggregated
	Aggs     []int64
}

// View is a materialized aggregate view and the statement defining it, its
// one persisted form: re-evaluating the statement reproduces the view.
type View struct {
	Stmt       *gvdl.CreateAggView
	SuperNodes []SuperNode
	SuperEdges []SuperEdge
}

// Evaluate computes an aggregate view over a graph. A non-nil member limits
// the edge pass to its edges (the parent's members when the statement
// targets a filtered view); nodes are grouped over the whole graph.
func Evaluate(g *graph.Graph, stmt *gvdl.CreateAggView, member *graph.Bitset) (*View, error) {
	groups, keys, err := groupNodes(g, stmt)
	if err != nil {
		return nil, err
	}
	nodeCols, err := aggColumns(g, g.NodeProps, stmt.NodeAggs, "node")
	if err != nil {
		return nil, err
	}
	edgeCols, err := aggColumns(g, g.EdgeProps, stmt.EdgeAggs, "edge")
	if err != nil {
		return nil, err
	}

	v := &View{Stmt: stmt}
	nodes := make([]fold, len(keys))
	for n, gid := range groups {
		if gid >= 0 {
			nodes[gid].add(n, stmt.NodeAggs, nodeCols)
		}
	}
	for gid := range nodes {
		if f := &nodes[gid]; f.count > 0 {
			v.SuperNodes = append(v.SuperNodes,
				SuperNode{ID: uint64(gid), Key: keys[gid], Size: f.count, Aggs: f.values(stmt.NodeAggs)})
		}
	}

	edges := make(map[[2]int32]*fold)
	for i := 0; i < g.NumEdges(); i++ {
		if !g.EdgeAlive(i) || member != nil && !member.Get(i) {
			continue
		}
		k := [2]int32{groups[g.Srcs[i]], groups[g.Dsts[i]]}
		if k[0] < 0 || k[1] < 0 {
			continue
		}
		f := edges[k]
		if f == nil {
			f = &fold{}
			edges[k] = f
		}
		f.add(i, stmt.EdgeAggs, edgeCols)
	}
	for k, f := range edges {
		v.SuperEdges = append(v.SuperEdges, SuperEdge{
			Src:   uint64(k[0]),
			Dst:   uint64(k[1]),
			Count: f.count,
			Aggs:  f.values(stmt.EdgeAggs),
		})
	}
	slices.SortFunc(v.SuperEdges, func(a, b SuperEdge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return v, nil
}

// fold accumulates one group: its row count and, per aggregation, the
// running sum (sum, avg), minimum or maximum of the aggregated column.
type fold struct {
	count int64
	acc   []int64
}

// add folds row (a node or edge index) into the group.
func (f *fold) add(row int, aggs []gvdl.Aggregation, cols []*graph.Column) {
	if f.count == 0 {
		f.acc = make([]int64, len(aggs))
	}
	f.count++
	for i, a := range aggs {
		if cols[i] == nil {
			continue
		}
		switch x := cols[i].Ints[row]; a.Func {
		case gvdl.AggSum, gvdl.AggAvg:
			f.acc[i] += x
		case gvdl.AggMin:
			if f.count == 1 || x < f.acc[i] {
				f.acc[i] = x
			}
		case gvdl.AggMax:
			if f.count == 1 || x > f.acc[i] {
				f.acc[i] = x
			}
		}
	}
}

// values finalizes the group's results (nil for no aggregations).
func (f *fold) values(aggs []gvdl.Aggregation) []int64 {
	if len(aggs) == 0 {
		return nil
	}
	for i, a := range aggs {
		switch a.Func {
		case gvdl.AggCount:
			f.acc[i] = f.count
		case gvdl.AggAvg:
			f.acc[i] /= f.count
		}
	}
	return f.acc
}

// aggColumns resolves aggregation property references to integer columns.
func aggColumns(g *graph.Graph, pt *graph.PropTable, aggs []gvdl.Aggregation, what string) ([]*graph.Column, error) {
	cols := make([]*graph.Column, len(aggs))
	for i, a := range aggs {
		if a.Prop == "" {
			if a.Func != gvdl.AggCount {
				return nil, fmt.Errorf("aggregate view: %s requires a property", a.Func)
			}
			continue
		}
		ci, ok := pt.ColumnIndex(a.Prop)
		if !ok {
			return nil, fmt.Errorf("aggregate view: no %s property %q on graph %s", what, a.Prop, g.Name)
		}
		col := &pt.Cols[ci]
		if col.Type != graph.TypeInt {
			return nil, fmt.Errorf("aggregate view: %s property %q must be an integer for %s", what, a.Prop, a.Func)
		}
		cols[i] = col
	}
	return cols, nil
}

// groupNodes assigns every node to a super-node group, or -1 when dropped.
// Returns the mapping and the display key of each group, indexed by group.
func groupNodes(g *graph.Graph, stmt *gvdl.CreateAggView) ([]int32, []string, error) {
	groups := make([]int32, g.NumNodes)
	var keys []string

	if len(stmt.Grouping.Predicates) > 0 {
		prog := gvdl.NewNodeSet(g)
		sets := make([]*graph.Bitset, len(stmt.Grouping.Predicates))
		for i, e := range stmt.Grouping.Predicates {
			if err := prog.Add(e); err != nil {
				return nil, nil, fmt.Errorf("aggregate view %s: %w", stmt.Name, err)
			}
			sets[i] = graph.NewBitset(g.NumNodes)
			keys = append(keys, e.String())
		}
		prog.Eval(0, g.NumNodes, nil, nil, sets)
		for n := range groups {
			groups[n] = -1
			for i, m := range sets {
				if m.Get(n) {
					groups[n] = int32(i)
					break
				}
			}
		}
		return groups, keys, nil
	}

	cols := make([]*graph.Column, len(stmt.Grouping.Props))
	for i, prop := range stmt.Grouping.Props {
		ci, ok := g.NodeProps.ColumnIndex(prop)
		if !ok {
			return nil, nil, fmt.Errorf("aggregate view %s: no node property %q", stmt.Name, prop)
		}
		cols[i] = &g.NodeProps.Cols[ci]
	}
	ids := make(map[string]int32)
	var parts []string
	for n := 0; n < g.NumNodes; n++ {
		parts = parts[:0]
		for _, c := range cols {
			parts = append(parts, c.Value(n).String())
		}
		key := strings.Join(parts, "|")
		gid, ok := ids[key]
		if !ok {
			gid = int32(len(keys))
			ids[key] = gid
			keys = append(keys, key)
		}
		groups[n] = gid
	}
	return groups, keys, nil
}
