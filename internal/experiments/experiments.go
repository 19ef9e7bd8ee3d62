// Package experiments regenerates every table and figure of the Graphsurge
// paper's evaluation (§7) on the synthetic stand-in datasets described in
// DESIGN.md. Each experiment prints the same rows/series the paper reports;
// EXPERIMENTS.md records the paper-vs-measured comparison. Absolute numbers
// differ from the paper (different hardware, scaled datasets); the shapes —
// which strategy wins, by roughly what factor, where the crossovers fall —
// are the reproduction target.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"text/tabwriter"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/graph"
	"graphsurge/internal/view"
)

// Config scales and directs an experiment run.
type Config struct {
	// Scale multiplies dataset sizes; 1.0 is the default experiment size
	// (minutes on a laptop core), benchmarks use ~0.1-0.3.
	Scale float64
	// Workers is the dataflow parallelism per run.
	Workers int
	// Out receives the result tables.
	Out io.Writer
}

func (c Config) scaled(base int) int {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	n := int(float64(base) * c.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// table is a small helper for aligned output.
type table struct {
	w *tabwriter.Writer
}

func newTable(out io.Writer) *table {
	return &table{w: tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, c)
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

// secs formats a duration as seconds with 3 decimals.
func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// ratio formats "a is X× of b" the way the paper's tables annotate runtimes.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// runModes executes a computation over a collection in each mode and returns
// the totals.
func runModes(ctx context.Context, col *view.Collection, mk func() analytics.Computation, opts core.RunOptions, modes []core.ExecMode) (map[core.ExecMode]*core.RunResult, error) {
	out := make(map[core.ExecMode]*core.RunResult, len(modes))
	for _, m := range modes {
		o := opts
		o.Mode = m
		res, err := core.RunCollectionContext(ctx, col, mk(), o)
		if err != nil {
			return nil, err
		}
		out[m] = res
	}
	return out, nil
}

// subsetStream builds a difference stream from explicit per-view edge-index
// sets given as adds/dels relative to the previous view.
type streamBuilder struct {
	names []string
	adds  [][]uint32
	dels  [][]uint32
}

func (b *streamBuilder) view(name string, adds, dels []uint32) {
	b.names = append(b.names, name)
	b.adds = append(b.adds, adds)
	b.dels = append(b.dels, dels)
}

func (b *streamBuilder) stream() *view.DiffStream {
	return &view.DiffStream{Names: b.names, Adds: b.adds, Dels: b.dels}
}

// randomViewSequence generates k views over a pool of edges: the first view
// is the prefix [0, start); every later view removes `rem` random present
// edges and adds `add` random absent ones. Used by the Table 2 workload.
func randomViewSequence(pool int, start, k, add, rem int, seed int64) *view.DiffStream {
	r := rand.New(rand.NewSource(seed))
	present := make([]bool, pool)
	var presentList, absentList []uint32
	for i := 0; i < pool; i++ {
		if i < start {
			present[i] = true
			presentList = append(presentList, uint32(i))
		} else {
			absentList = append(absentList, uint32(i))
		}
	}
	b := &streamBuilder{}
	first := make([]uint32, len(presentList))
	copy(first, presentList)
	b.view("v0", first, nil)

	for t := 1; t < k; t++ {
		// Pick additions first so the deletions below cannot touch an edge
		// added in the same view (a view's adds and dels must be disjoint).
		var adds []uint32
		addedNow := make(map[uint32]bool, add)
		for len(adds) < add && len(absentList) > 0 {
			i := r.Intn(len(absentList))
			e := absentList[i]
			absentList[i] = absentList[len(absentList)-1]
			absentList = absentList[:len(absentList)-1]
			present[e] = true
			addedNow[e] = true
			adds = append(adds, e)
			presentList = append(presentList, e)
		}
		var dels []uint32
		for tries := 0; len(dels) < rem && len(presentList) > len(adds) && tries < 10*rem+100; tries++ {
			i := r.Intn(len(presentList))
			e := presentList[i]
			if addedNow[e] {
				continue
			}
			presentList[i] = presentList[len(presentList)-1]
			presentList = presentList[:len(presentList)-1]
			present[e] = false
			dels = append(dels, e)
			absentList = append(absentList, e)
		}
		// Difference sets are ascending; the picks above are in random order.
		slices.Sort(adds)
		slices.Sort(dels)
		b.view(fmt.Sprintf("v%d", t), adds, dels)
	}
	return b.stream()
}

// windowStream builds views selecting edges whose integer property value
// lies in [lo, hi) per view — the temporal window workloads. Edges must be
// classified by the caller via edgeDay.
func windowStream(g *graph.Graph, dayCol int, windows [][2]int64, names []string) *view.DiffStream {
	days := g.EdgeProps.Cols[dayCol].Ints
	b := &streamBuilder{}
	present := make([]bool, g.NumEdges())
	for vi, w := range windows {
		var adds, dels []uint32
		for i := 0; i < g.NumEdges(); i++ {
			in := days[i] >= w[0] && days[i] < w[1]
			if in && !present[i] {
				adds = append(adds, uint32(i))
				present[i] = true
			} else if !in && present[i] {
				dels = append(dels, uint32(i))
				present[i] = false
			}
		}
		b.view(names[vi], adds, dels)
	}
	return b.stream()
}
