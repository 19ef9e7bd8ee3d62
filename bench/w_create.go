package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"graphsurge/internal/core"
	"graphsurge/internal/obs"
	"graphsurge/internal/view"
)

// createInst is create.ordered: collection creation only — GVDL compile,
// predicate evaluation into the edge boolean matrix, the ordering optimizer
// and difference-stream generation (the paper's Table 4 creation time). It
// runs no computation, so no dataflow executes.
type createInst struct {
	csv          *csvGraph
	nodes, edges string // CSV paths, for the as-written engine of the traced run
	eng          *core.Engine
	sess         *core.Session
	load         time.Duration
	big, small   [][]int // 10C5 and 7C4 subsets in their shuffled written order
	n            int     // passes run, for fresh collection names
	runsAtSetup  int64
}

func createSetup(ctx context.Context, e env) (instance, error) {
	c := &createInst{
		csv:         communityInput("community", e.seed, e.sc),
		big:         perturbation(e.seed, 10, 5),
		small:       perturbation(e.seed+1, 7, 4),
		runsAtSetup: obs.M.RunsStarted.Value(),
	}
	var err error
	if c.eng, err = core.NewEngine(core.Options{Workers: 1, Ordering: view.OrderOptimized}); err != nil {
		return nil, err
	}
	c.sess = c.eng.NewSession()
	if c.nodes, c.edges, err = c.csv.write(e.dir); err != nil {
		c.close()
		return nil, err
	}
	t0 := time.Now()
	_, err = c.sess.Do(ctx, &core.LoadGraphRequest{Name: graphName, NodesPath: c.nodes, EdgesPath: c.edges})
	c.load = time.Since(t0)
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *createInst) close() { c.eng.Close() }

func (c *createInst) inputsHash() string { return c.csv.hash() }

func (c *createInst) pass(ctx context.Context, r *recorder) {
	c.n++
	c.create(ctx, r, c.sess, fmt.Sprintf("p10_%d", c.n), c.big)
	c.create(ctx, r, c.sess, fmt.Sprintf("p7_%d", c.n), c.small)
}

// create executes one create-view-collection statement and folds the
// timings the collection reports into the pass.
func (c *createInst) create(ctx context.Context, r *recorder, sess *core.Session, name string, subsets [][]int) *view.Collection {
	var col *view.Collection
	r.op("create "+name, "", "gvdl", func(sp int) error {
		if err := statements(ctx, sess, perturbationGVDL(name, graphName, subsets)); err != nil {
			return err
		}
		var err error
		if col, err = sess.Engine().LookupCollection(name); err != nil {
			return err
		}
		if got := col.Stream.NumViews(); got != len(subsets) {
			return fmt.Errorf("collection has %d views, statement wrote %d", got, len(subsets))
		}
		t := col.Timings
		r.tr.reported(sp, 1, []leaf{{
			{"edge boolean matrix", "view.ebm", t.EBM},
			{"ordering", "ordering", t.Ordering},
			{"difference stream", "view.diffs", t.Diffs},
		}})
		r.count("ebm_ns", float64(t.EBM))
		r.count("ordering_ns", float64(t.Ordering))
		r.count("diffs_ns", float64(t.Diffs))
		r.count("total_diffs", float64(col.Stream.TotalDiffs()))
		return nil
	})
	return col
}

func (c *createInst) layers(ctx context.Context, r *recorder, tp *passStats, _ time.Duration) map[string]float64 {
	vals := map[string]float64{
		"graph.load_s":     c.load.Seconds(),
		"view.ebm_s":       tp.counts["ebm_ns"] / 1e9,
		"view.ordering_s":  tp.counts["ordering_ns"] / 1e9,
		"view.diffs_s":     tp.counts["diffs_ns"] / 1e9,
		"view.total_diffs": tp.counts["total_diffs"],
	}
	// What the optimizer bought: the same statements on an engine that keeps
	// the written order.
	plain, err := core.NewEngine(core.Options{Workers: 1})
	if err != nil {
		r.check("as-written engine", err)
		return vals
	}
	defer plain.Close()
	sess := plain.NewSession()
	_, err = sess.Do(ctx, &core.LoadGraphRequest{Name: graphName, NodesPath: c.nodes, EdgesPath: c.edges})
	r.check("as-written engine load", err)
	written := 0.0
	for name, subsets := range map[string][][]int{"w10": c.big, "w7": c.small} {
		if col := c.create(ctx, r, sess, name, subsets); col != nil {
			written += float64(col.Stream.TotalDiffs())
		}
	}
	if opt := tp.counts["total_diffs"]; opt > 0 {
		vals["ordering.diffs_ratio"] = written / opt
	}
	return vals
}

// verify checks the last pass's collections against the benchmark's own
// count of each view's edges — as a multiset, because the optimizer reorders
// the views — and that the workload ran no computation.
func (c *createInst) verify(ctx context.Context, r *recorder) {
	for name, subsets := range map[string][][]int{
		fmt.Sprintf("p10_%d", c.n): c.big,
		fmt.Sprintf("p7_%d", c.n):  c.small,
	} {
		col, err := c.eng.LookupCollection(name)
		if err == nil {
			got, want := col.Stream.ViewSizes(), perturbationSizes(c.csv.g, subsets)
			sort.Ints(got)
			sort.Ints(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				err = fmt.Errorf("view sizes differ from the edges the predicates select")
			}
		}
		r.check("view sizes "+name, err)
	}
	var err error
	if ran := obs.M.RunsStarted.Value() - c.runsAtSetup; ran != 0 {
		err = fmt.Errorf("%d collection runs started during a creation-only workload", ran)
	}
	r.check("no dataflow executed", err)
}
