// Package dataflow implements a multi-worker differential computation engine,
// the Go equivalent of the Timely Dataflow + Differential Dataflow substrate
// that Graphsurge is built on.
//
// Every stream is a multiset of (record, time, diff) updates with times drawn
// from the product lattice (version, iteration) (package timestamp). The
// engine maintains, for every operator and every time t, the invariant that
// the accumulated output Σ_{s≤t} δout_s equals the operator applied to the
// accumulated input Σ_{s≤t} δin_s. Linear operators (Map, Filter, FlatMap,
// Concat, Negate) transform deltas directly; Join is bilinear and pairs
// deltas across sides at the lattice join of their times; Reduce keeps per-key
// input/output histories and emits corrections at the join-closure of the
// key's times; Iterate builds the differential feedback loop
// X = I ⊕ delay(N) ⊖ delay(I) and runs to fixpoint, detected automatically by
// quiescence.
//
// Scheduling is a deliberate simplification of Timely's distributed progress
// tracking, sound for Graphsurge's batch-synchronous usage (one view version
// at a time): pending work is processed in lexicographic time order, a linear
// extension of the partial order, and every operator only emits at times ≥
// the time being processed, so all inputs at s ≤ t are present before any
// work at t is finalized.
//
// A Scope runs W workers. Keyed operators shard their state by key hash and
// route deltas to the owning worker; execution proceeds in rounds per
// timestamp with barriers until global quiescence, the moral equivalent of
// Timely workers exchanging data over channels.
package dataflow

import (
	"graphsurge/internal/timestamp"
)

// Diff is the signed multiplicity of a record update. Negative diffs are
// deletions.
type Diff = int64

// Delta is one update to a stream: record r changed by multiplicity D at
// logical time T.
type Delta[R comparable] struct {
	Rec R
	T   timestamp.Time
	D   Diff
}

// KV is a keyed record, the input shape of Join and Reduce.
type KV[K comparable, V comparable] struct {
	K K
	V V
}

// Update is a record-multiplicity pair without a time, used when feeding
// inputs (the time is supplied by the version being fed).
type Update[R comparable] struct {
	Rec R
	D   Diff
}

// VD is a value-multiplicity pair, the consolidated input handed to Reduce
// functions.
type VD[V comparable] struct {
	V V
	D Diff
}

type deltaKey[R comparable] struct {
	rec R
	t   timestamp.Time
}

// Consolidate sums the diffs of equal (record, time) pairs and drops zeros.
// The result order is unspecified. Small batches merge in place without
// allocating.
func Consolidate[R comparable](batch []Delta[R]) []Delta[R] {
	if len(batch) <= 1 {
		if len(batch) == 1 && batch[0].D == 0 {
			return nil
		}
		return batch
	}
	if len(batch) <= 32 {
		out := batch[:0]
		n := 0
	next:
		for _, d := range batch[0:] {
			for i := 0; i < n; i++ {
				if out[i].Rec == d.Rec && out[i].T == d.T {
					out[i].D += d.D
					continue next
				}
			}
			out = out[:n+1]
			out[n] = d
			n++
		}
		m := 0
		for i := 0; i < n; i++ {
			if out[i].D != 0 {
				out[m] = out[i]
				m++
			}
		}
		return out[:m]
	}
	acc := make(map[deltaKey[R]]Diff, len(batch))
	for _, d := range batch {
		acc[deltaKey[R]{d.Rec, d.T}] += d.D
	}
	out := batch[:0]
	for k, d := range acc {
		if d != 0 {
			out = append(out, Delta[R]{k.rec, k.t, d})
		}
	}
	return out
}
