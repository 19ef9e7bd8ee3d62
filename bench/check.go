package main

import (
	"context"
	"fmt"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
)

// digest is an order-independent fingerprint of a run's final per-vertex
// results: the number of (vertex, value) records and the wrapping sum of a
// mix of each. Two strategies computed the same answer exactly when their
// digests are equal (up to hash collision).
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(vertex uint64, value int64) {
	x := vertex*0x9e3779b97f4a7c15 ^ uint64(value)*0xc2b2ae3d27d4eb4f
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	d.n++
	d.sum += x
}

func digestOf(final map[analytics.VertexValue]int64) digest {
	var d digest
	for vv := range final {
		d.add(vv.V, vv.Val)
	}
	return d
}

func (d digest) String() string { return fmt.Sprintf("%d:%016x", d.n, d.sum) }

// expect is a digest that must not change once seen: every pass of a
// workload and every strategy of the equivalence check has to reproduce it.
type expect struct {
	set bool
	d   digest
}

func (e *expect) match(what string, d digest) error {
	if !e.set {
		e.set, e.d = true, d
		return nil
	}
	if d != e.d {
		return fmt.Errorf("%s: result digest %s, expected %s", what, d, e.d)
	}
	return nil
}

// algo is one member of the algorithm suite as a workload runs it.
type algo struct {
	name   string
	spec   analytics.Spec
	weight string // edge property used as weight; empty = unit weights
	want   expect
}

// runDigest performs a run request and returns its result and digest.
func runDigest(ctx context.Context, sess *core.Session, req *core.RunRequest) (*core.RunResult, digest, error) {
	resp, err := sess.Do(ctx, req)
	if err != nil {
		return nil, digest{}, err
	}
	res := resp.(*core.RunResult)
	if res.IterCapHit() {
		return nil, digest{}, fmt.Errorf("a fixpoint hit the iteration cap")
	}
	return res, digestOf(res.FinalResults()), nil
}

// viewDigest runs the algorithm once, from scratch, over a standalone view —
// the reference every collection strategy's final view is compared against.
func viewDigest(ctx context.Context, sess *core.Session, view string, a *algo) (digest, error) {
	resp, err := sess.Do(ctx, &core.RunViewRequest{View: view, Algorithm: a.spec, WeightProp: a.weight})
	if err != nil {
		return digest{}, err
	}
	return digestOf(resp.(*core.ViewRunResult).Results), nil
}

// statements executes a GVDL batch.
func statements(ctx context.Context, sess *core.Session, src string) error {
	_, err := sess.Do(ctx, &core.StatementsRequest{Src: src})
	return err
}
