// Incremental view maintenance: when a base graph absorbs a mutation
// batch, every materialized collection — a filtered view is a collection of
// one — re-evaluates its predicates only over the touched edges (the
// tombstoned indices and the appended index range, over which its compiled
// program runs as it does at creation), patching the EBM columns
// and editing the difference stream in place instead of rematerializing (the
// dynamic-graph follow-on to the paper; see DESIGN.md "Dynamic graphs").
//
// The edit discipline rests on two invariants of the mutation layer:
// deleted edges keep their (stable) indices as tombstones, so their old EBM
// rows name the stream entries to remove; inserted edges take indices
// strictly greater than every pre-existing one, so their entries append to
// the tail of each sorted add/del set without merging.
package view

import (
	"fmt"

	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
)

// ViewDelta is one view's membership change under a mutation batch: the
// base-graph edge indices that entered and left the view, ascending. The
// delta for a collection's final ordered view is what the incremental run
// path feeds into a warm replica as a new outer version.
type ViewDelta struct {
	Name string
	Adds []uint32
	Dels []uint32
}

// Empty reports a no-op delta.
func (d ViewDelta) Empty() bool { return len(d.Adds) == 0 && len(d.Dels) == 0 }

// MaintainCollection patches a materialized collection in place for one
// applied mutation and returns each ordered view's membership delta. preds
// holds each view's predicate (pre-order view index), compiled here against
// the mutated graph; parent is the view the collection is declared over,
// already patched (nil for the base graph).
//
// Only touched edges are visited: a deleted edge's old row is read from the
// EBM; the inserted edges' rows are the program evaluated over the appended
// range, as creation evaluates it over every edge. The stream is then edited
// — stale transition entries removed, new ones appended — and the EBM grown
// and patched, leaving exactly the state a from-scratch rematerialization
// would have produced.
func MaintainCollection(c *Collection, preds []gvdl.Expr, parent *Collection, a graph.Applied) ([]ViewDelta, error) {
	if c.Stream == nil {
		return nil, fmt.Errorf("view: collection %s has no difference stream", c.Name)
	}
	k := c.Stream.NumViews()
	if len(preds) != k {
		return nil, fmt.Errorf("view: collection %s has %d views, got %d predicates", c.Name, k, len(preds))
	}
	prog := gvdl.NewEdgeSet(c.Graph)
	for ci, p := range preds {
		if err := prog.Add(p); err != nil {
			return nil, fmt.Errorf("view: collection %s view %d: %w", c.Name, ci, err)
		}
	}
	c.Stream.chain.Store(nil) // the edits below change what it fingerprints
	deltas := make([]ViewDelta, k)
	for t := range deltas {
		deltas[t].Name = c.Stream.Names[t]
	}
	remAdds := make([][]uint32, k)
	remDels := make([][]uint32, k)

	cols := c.EBM.Cols
	for _, e := range a.Deleted {
		prev := false
		for t, ci := range c.Order {
			mem := cols[ci].Get(int(e))
			if mem && !prev {
				remAdds[t] = append(remAdds[t], e)
			} else if !mem && prev {
				remDels[t] = append(remDels[t], e)
			}
			if mem {
				deltas[t].Dels = append(deltas[t].Dels, e)
			}
			prev = mem
		}
	}
	for t := range remAdds {
		if len(remAdds[t]) > 0 {
			c.Stream.Adds[t] = removeSorted(c.Stream.Adds[t], remAdds[t])
		}
		if len(remDels[t]) > 0 {
			c.Stream.Dels[t] = removeSorted(c.Stream.Dels[t], remDels[t])
		}
	}

	newN := a.PrevEdges + a.Inserted
	for _, col := range cols {
		col.Grow(newN)
		for _, e := range a.Deleted {
			col.Clear(int(e))
		}
	}
	c.EBM.NumEdges = newN
	prog.Eval(a.PrevEdges, newN, parent.Members(), c.Graph.DeadWords, cols)
	for i := a.PrevEdges; i < newN; i++ {
		prev := false
		for t, ci := range c.Order {
			mem := cols[ci].Get(i)
			if mem && !prev {
				c.Stream.Adds[t] = append(c.Stream.Adds[t], uint32(i))
			} else if !mem && prev {
				c.Stream.Dels[t] = append(c.Stream.Dels[t], uint32(i))
			}
			if mem {
				deltas[t].Adds = append(deltas[t].Adds, uint32(i))
			}
			prev = mem
		}
	}
	c.Version = a.Version
	return deltas, nil
}

// removeSorted filters the ascending entries of rem out of the ascending
// list, in place. Every rem entry is known present (callers only schedule
// removals for transitions they observed).
func removeSorted(list, rem []uint32) []uint32 {
	out := list[:0]
	j := 0
	for _, v := range list {
		for j < len(rem) && rem[j] < v {
			j++
		}
		if j < len(rem) && rem[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}
