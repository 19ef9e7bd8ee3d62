// Package view implements Graphsurge's view-collection executor: building
// Edge Boolean Matrices (EBM), ordering collections, and computing the edge
// difference streams that drive differential execution (paper §3.1-§3.2). An
// individual filtered view is a collection of one view: its first difference
// set is its edge list. Columns come from one compiled gvdl.Program, over
// every edge at creation and over appended edges in maintenance.
//
// The EBM is a collection's one membership representation and every
// collection keeps it: creation evaluates it, NewCollection and
// LoadCollection rebuild it from the stream. Run seeds, maintenance's old
// rows and a parent view's mask all read its columns.
package view

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/ordering"
)

// EBM is the Edge Boolean Matrix of a collection: column j records which
// edges of the base graph satisfy view j's predicate (paper §3.2, step 1).
type EBM struct {
	NumEdges int
	Names    []string
	Cols     []*graph.Bitset
}

// NumViews returns the number of columns.
func (m *EBM) NumViews() int { return len(m.Cols) }

// buildEBM evaluates a compiled predicate program over every edge, in
// parallel across word-aligned ranges (step 1 of materialization), masking
// out tombstoned edges and edges outside the parent view.
func buildEBM(g *graph.Graph, names []string, prog *gvdl.Program, parent *Collection, workers int) *EBM {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nE := g.NumEdges()
	m := &EBM{NumEdges: nE, Names: names, Cols: make([]*graph.Bitset, len(names))}
	for j := range m.Cols {
		m.Cols[j] = graph.NewBitset(nE)
	}
	keep := parent.Members()
	var wg sync.WaitGroup
	// Chunks of whole words, so no two workers touch the same bitset word.
	chunk := ((nE+workers-1)/workers + 63) &^ 63
	for lo := 0; lo < nE; lo += chunk {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog.Eval(lo, min(lo+chunk, nE), keep, g.DeadWords, m.Cols)
		}()
	}
	wg.Wait()
	return m
}

// DiffStream is the materialized edge difference stream of an ordered
// collection (paper §3.2, step 3): per view, the edge indices added and
// removed relative to the previous view in the order.
type DiffStream struct {
	Names []string   // view names in execution order
	Adds  [][]uint32 // per view, ascending edge indices entering
	Dels  [][]uint32 // per view, ascending edge indices leaving

	// chain caches ChainFingerprints until MaintainCollection next edits the
	// stream, so a run and the serving cache key hash a version once between
	// them. Nil on a fresh stream; atomic because runs fill it concurrently.
	chain atomic.Pointer[[]uint64]
}

// NumViews returns the number of views in the stream.
func (d *DiffStream) NumViews() int { return len(d.Names) }

// DiffSize returns |δC_t| for view t: the number of added plus removed
// edges.
func (d *DiffStream) DiffSize(t int) int { return len(d.Adds[t]) + len(d.Dels[t]) }

// TotalDiffs returns the sum of all difference-set sizes, the objective of
// the collection ordering problem.
func (d *DiffStream) TotalDiffs() int64 {
	var n int64
	for t := range d.Adds {
		n += int64(d.DiffSize(t))
	}
	return n
}

// ChainFingerprints returns the cumulative FNV-1a fingerprint of the
// stream's prefix after each view: out[t] covers views [0, t]. Chaining
// means equal values at t imply (up to hash collision) equal prefixes, which
// is the question a warm replica asks before stepping a suffix and the
// identity the serving cache keys results by. Call it under the engine's run
// barrier: mutations edit Adds/Dels in place. The slice is shared between
// callers (computed once per stream version) and must not be modified; code
// that edits a fingerprinted stream other than through MaintainCollection
// must build a new DiffStream.
func (d *DiffStream) ChainFingerprints() []uint64 {
	if p := d.chain.Load(); p != nil {
		return *p
	}
	h := fnv.New64a()
	var buf [4]byte
	word := func(v uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	out := make([]uint64, d.NumViews())
	for t := range out {
		h.Write([]byte(d.Names[t]))
		word(uint32(len(d.Adds[t])))
		for _, e := range d.Adds[t] {
			word(e)
		}
		word(uint32(len(d.Dels[t])))
		for _, e := range d.Dels[t] {
			word(e)
		}
		out[t] = h.Sum64()
	}
	d.chain.Store(&out)
	return out
}

// ViewSizes returns |GV_t| for every view (accumulated edge counts).
func (d *DiffStream) ViewSizes() []int {
	out := make([]int, d.NumViews())
	cur := 0
	for t := range d.Adds {
		cur += len(d.Adds[t]) - len(d.Dels[t])
		out[t] = cur
	}
	return out
}

// MaterializeDiffs computes the difference stream of the EBM's columns in
// the given order: view t's adds are its column minus the previous view's,
// its dels the previous column minus its own, both word-wise.
func MaterializeDiffs(m *EBM, order []int) *DiffStream {
	k := len(order)
	d := &DiffStream{
		Names: make([]string, k),
		Adds:  make([][]uint32, k),
		Dels:  make([][]uint32, k),
	}
	prev := graph.NewBitset(m.NumEdges) // the empty view before the first
	for t, c := range order {
		cur := m.Cols[c]
		d.Names[t] = m.Names[c]
		d.Adds[t], d.Dels[t] = cur.AndNot(prev), prev.AndNot(cur)
		prev = cur
	}
	return d
}

// rebuildEBM derives the EBM a difference stream over numEdges edges was
// materialized from, in one forward pass: column order[t] is view t−1's
// column minus Dels[t] plus Adds[t]. It rejects every stream whose columns
// would not re-derive it exactly through MaterializeDiffs — an order that is
// not a permutation, a set out of range or not strictly ascending, an add of
// a member or a del of a non-member (so any del in the opening view) — so
// seeds read from the columns and diffs stepped from the stream agree.
func rebuildEBM(numEdges int, order []int, s *DiffStream) (*EBM, error) {
	k := s.NumViews()
	if len(order) != k || len(s.Adds) != k || len(s.Dels) != k {
		return nil, fmt.Errorf("%d views but %d order entries, %d add and %d del sets", k, len(order), len(s.Adds), len(s.Dels))
	}
	m := &EBM{NumEdges: numEdges, Names: make([]string, k), Cols: make([]*graph.Bitset, k)}
	prev := graph.NewBitset(numEdges)
	for t, c := range order {
		if c < 0 || c >= k || m.Cols[c] != nil {
			return nil, fmt.Errorf("order entry %d is %d: out of [0, %d) or repeated", t, c, k)
		}
		cur := graph.NewBitset(numEdges)
		copy(cur.Words(), prev.Words())
		if err := applyDiffSet(cur, prev, numEdges, s.Dels[t], false); err != nil {
			return nil, fmt.Errorf("view %d dels: %w", t, err)
		}
		if err := applyDiffSet(cur, prev, numEdges, s.Adds[t], true); err != nil {
			return nil, fmt.Errorf("view %d adds: %w", t, err)
		}
		m.Cols[c], m.Names[c] = cur, s.Names[t]
		prev = cur
	}
	return m, nil
}

// applyDiffSet sets (add) or clears the bits of one ascending difference set
// in cur, checking each entry against the previous view's column prev.
func applyDiffSet(cur, prev *graph.Bitset, numEdges int, idxs []uint32, add bool) error {
	for i, e := range idxs {
		switch {
		case int(e) >= numEdges:
			return fmt.Errorf("edge index %d out of range for %d edges", e, numEdges)
		case i > 0 && e <= idxs[i-1]:
			return fmt.Errorf("not strictly ascending at edge %d", e)
		case prev.Get(int(e)) == add:
			if add {
				return fmt.Errorf("edge %d is already a member", e)
			}
			return fmt.Errorf("edge %d is not a member", e)
		case add:
			cur.Set(int(e))
		default:
			cur.Clear(int(e))
		}
	}
	return nil
}

// OptimizeOrder runs the collection ordering optimizer (Algorithm 1): pad a
// zero column, compute pairwise Hamming distances between EBM columns, and
// order via the CBMP1.5/Christofides reduction.
//
// Degenerate inputs skip the Hamming matrix and the solver entirely: zero
// or one view has only one possible order, and all-empty views make every
// order cost zero, so the written order is returned as-is.
func OptimizeOrder(m *EBM) []int {
	k := m.NumViews()
	switch k {
	case 0:
		return []int{}
	case 1:
		return []int{0}
	}
	allEmpty := true
	for _, c := range m.Cols {
		if c.Count() != 0 {
			allEmpty = false
			break
		}
	}
	if allEmpty {
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}
		return order
	}
	// Distance matrix over k view columns plus the zero column (index k).
	dist := make([][]int64, k+1)
	for i := range dist {
		dist[i] = make([]int64, k+1)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			d := int64(m.Cols[i].HammingDistance(m.Cols[j]))
			dist[i][j], dist[j][i] = d, d
		}
		d := int64(m.Cols[i].Count()) // distance to the zero column
		dist[i][k], dist[k][i] = d, d
	}
	return ordering.Order(k, func(i, j int) int64 { return dist[i][j] })
}

// RandomOrder returns a seeded random permutation of the k views, the
// baseline ordering used in the paper's Table 4.
func RandomOrder(k int, seed int64) []int {
	r := rand.New(rand.NewSource(seed))
	return r.Perm(k)
}

// OrderingMode selects how a collection's views are ordered before
// materializing the difference stream.
type OrderingMode uint8

const (
	// OrderAsWritten keeps the user's order from the GVDL statement.
	OrderAsWritten OrderingMode = iota
	// OrderOptimized runs the collection ordering optimizer.
	OrderOptimized
	// OrderRandom shuffles with the seed in Options.Seed.
	OrderRandom
)

// Options configures collection materialization.
type Options struct {
	Workers int
	Mode    OrderingMode
	Seed    int64
}

// Timings records the duration of each materialization step; their sum is
// the paper's collection creation time (CCT).
type Timings struct {
	EBM      time.Duration
	Ordering time.Duration
	Diffs    time.Duration
}

// Total returns the collection creation time.
func (t Timings) Total() time.Duration { return t.EBM + t.Ordering + t.Diffs }

// Collection is a fully materialized view collection ready for differential
// execution. A filtered view is a collection of one view (`create view`
// produces exactly that): Stream.NumViews() == 1 and Stream.Adds[0] is its
// ascending edge list.
type Collection struct {
	Name    string
	Graph   *graph.Graph
	EBM     *EBM  // never nil: column Order[t] is view t's membership
	Order   []int // column order used
	Stream  *DiffStream
	Timings Timings

	// PredSrcs holds each view's predicate in re-parseable GVDL source form,
	// parallel to the EBM columns (pre-order view index), retained for
	// incremental maintenance. Nil for programmatic collections, which are
	// not maintainable.
	PredSrcs []string
	// On names the parent view — a one-view collection — when the collection
	// was declared over a view; empty when it filters the base graph directly.
	On string
	// Version is the base graph version this materialization reflects.
	Version uint64
}

// Members returns a one-view collection's view — its EBM column — as a
// read-only bitset over the base graph's edges, and nil for a nil
// collection.
func (c *Collection) Members() *graph.Bitset {
	if c == nil {
		return nil
	}
	return c.EBM.Cols[0]
}

// NewCollection wraps a pre-computed difference stream as a materialized
// collection, for programmatic workloads (experiments, tests) that construct
// view sequences directly instead of through GVDL predicates. The order is
// the stream's own, and the EBM is rebuilt from the stream; a stream that is
// not a valid difference stream over g's edges (see rebuildEBM) panics.
func NewCollection(name string, g *graph.Graph, stream *DiffStream) *Collection {
	order := make([]int, stream.NumViews())
	for i := range order {
		order[i] = i
	}
	ebm, err := rebuildEBM(g.NumEdges(), order, stream)
	if err != nil {
		panic(fmt.Sprintf("view: NewCollection %s: %v", name, err))
	}
	return &Collection{Name: name, Graph: g, EBM: ebm, Order: order, Stream: stream, Version: g.Version}
}

// MaterializeFromPredicates runs the three-step pipeline of §3.2 — EBM
// computation, collection ordering, difference stream computation — over
// predicates compiled into one program: the one materializer, for GVDL
// statements and programmatic gvdl.Func predicates alike. Over a parent view
// (nil for the base graph) only the parent's members can be members.
func MaterializeFromPredicates(name string, g *graph.Graph, names []string, preds []gvdl.Expr, parent *Collection, opts Options) (*Collection, error) {
	if len(names) != len(preds) {
		return nil, fmt.Errorf("collection %s: %d names but %d predicates", name, len(names), len(preds))
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("collection %s: no views", name)
	}
	prog := gvdl.NewEdgeSet(g)
	for i, p := range preds {
		if err := prog.Add(p); err != nil {
			return nil, fmt.Errorf("%s: predicate of view %s: %w", name, names[i], err)
		}
	}
	c := &Collection{Name: name, Graph: g, Version: g.Version}

	start := time.Now()
	c.EBM = buildEBM(g, names, prog, parent, opts.Workers)
	c.Timings.EBM = time.Since(start)

	start = time.Now()
	switch opts.Mode {
	case OrderOptimized:
		c.Order = OptimizeOrder(c.EBM)
	case OrderRandom:
		c.Order = RandomOrder(c.EBM.NumViews(), opts.Seed)
	default:
		c.Order = make([]int, c.EBM.NumViews())
		for i := range c.Order {
			c.Order[i] = i
		}
	}
	c.Timings.Ordering = time.Since(start)

	start = time.Now()
	c.Stream = MaterializeDiffs(c.EBM, c.Order)
	c.Timings.Diffs = time.Since(start)
	return c, nil
}
