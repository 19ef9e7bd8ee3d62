package analytics

import (
	"graphsurge/internal/dataflow"
	"graphsurge/internal/graph"
)

// degree is a (source, out-degree) record.
type degree = dataflow.KV[uint64, int64]

// counts keeps, per node id, the edge endpoints and out-edges of the edges
// stepped so far, in a column indexed by the id (node ids are dense, see
// graph.Graph) and grown to the largest id seen. A step opens with begin and
// adds each edge; the first time a step touches a node, the node's counts
// from before the step are kept, so what is read after the step is what
// the whole step changed, consolidated. The Instance feeds its vertex and
// degree inputs from them (feed), the staged SCC runner its alive set.
type counts struct {
	nodes   []nodeCount // per node id
	step    uint32
	touched []before // the open step's nodes
}

// nodeCount is one node's counts and the last step that touched it.
type nodeCount struct {
	inc, out int64 // edge endpoints, out-edges
	seen     uint32
}

// before is a node the open step touched, with its counts before the step.
type before struct {
	n        uint64
	inc, out int64
}

// begin opens a step.
func (c *counts) begin() {
	c.step++
	c.touched = c.touched[:0]
}

// add folds d copies of edge t into the counts.
func (c *counts) add(t graph.Triple, d dataflow.Diff) {
	if n := max(t.Src, t.Dst) + 1; n > uint64(len(c.nodes)) {
		c.nodes = append(c.nodes, make([]nodeCount, n-uint64(len(c.nodes)))...)
	}
	src, dst := c.touch(t.Src), c.touch(t.Dst)
	src.inc += d
	src.out += d
	dst.inc += d
}

// touch returns node n's counts and, the first time the open step touches
// n, records its counts before the step.
func (c *counts) touch(n uint64) *nodeCount {
	p := &c.nodes[n]
	if p.seen != c.step {
		p.seen = c.step
		c.touched = append(c.touched, before{n, p.inc, p.out})
	}
	return p
}

// vertexDiffs appends to ups the vertices the open step added (a count that
// left 0) and removed (a count that reached 0).
func (c *counts) vertexDiffs(ups []dataflow.Update[uint64]) []dataflow.Update[uint64] {
	for _, b := range c.touched {
		switch was, now := b.inc > 0, c.nodes[b.n].inc > 0; {
		case now && !was:
			ups = append(ups, dataflow.Update[uint64]{Rec: b.n, D: 1})
		case was && !now:
			ups = append(ups, dataflow.Update[uint64]{Rec: b.n, D: -1})
		}
	}
	return ups
}

// reset zeroes the counts, keeping the columns' arrays.
func (c *counts) reset() {
	clear(c.nodes)
	c.step, c.touched = 0, c.touched[:0]
}

// feed is an Instance's vertex and degree inputs, each made only when Build
// asks for it (Builder.nodes, Builder.outDegrees), and the counts they are
// fed from.
type feed struct {
	counts
	verts *dataflow.Input[uint64]
	degs  *dataflow.Input[degree]
	vups  []dataflow.Update[uint64] // the step's vertex differences
	dups  []dataflow.Update[degree] // the step's degree differences
}

// send feeds the open step's differences at version v: its vertex
// differences, and per source whose out-degree it moved from d to d′ the
// retraction of (source, d) and the addition of (source, d′), a degree of 0
// being no record.
func (f *feed) send(v uint32) {
	if f.verts != nil {
		f.vups = f.vertexDiffs(f.vups[:0])
		f.verts.SendAt(v, f.vups)
	}
	if f.degs == nil {
		return
	}
	f.dups = f.dups[:0]
	for _, b := range f.touched {
		if now := f.nodes[b.n].out; now != b.out {
			if b.out != 0 {
				f.dups = append(f.dups, dataflow.Update[degree]{Rec: degree{K: b.n, V: b.out}, D: -1})
			}
			if now != 0 {
				f.dups = append(f.dups, dataflow.Update[degree]{Rec: degree{K: b.n, V: now}, D: 1})
			}
		}
	}
	f.degs.SendAt(v, f.dups)
}
