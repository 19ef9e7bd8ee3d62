package dataflow

// Linear operators are fused: they transform delta batches inline inside
// subscription closures and never materialize state or become scheduler
// nodes. This mirrors how Timely/Differential pipelines fuse map/filter
// chains between exchanges.

// linear wires a fused operator: transform fills ob, the calling worker's
// output batch (already at b's time), from a slice of an input batch's rows.
// An input batch is transformed and handed on chunkRows rows at a time, so
// the scratch is bounded (a FlatMap's by its fan-out times chunkRows) and
// the scope keeps it across versions and Park.
func linear[A comparable, B comparable](in *Collection[A], transform func(recs []A, diffs []Diff, ob *batch[B])) *Collection[B] {
	out := newCollection[B](in.s)
	obs := make([]batch[B], in.s.workers)
	in.subscribe(func(w int, b *batch[A]) {
		for lo := 0; lo < len(b.recs); lo += chunkRows {
			hi := min(lo+chunkRows, len(b.recs))
			ob := obs[w].reset(b.t, hi-lo)
			transform(b.recs[lo:hi], b.diffs[lo:hi], ob)
			ob.more = (len(b.recs) - hi + b.more) * len(ob.recs) / (hi - lo)
			out.emit(w, ob)
		}
	})
	return out
}

// Map applies f to every record, preserving times and diffs.
func Map[A comparable, B comparable](in *Collection[A], f func(A) B) *Collection[B] {
	return linear(in, func(recs []A, diffs []Diff, ob *batch[B]) {
		for _, r := range recs {
			ob.recs = append(ob.recs, f(r))
		}
		ob.diffs = append(ob.diffs, diffs...)
	})
}

// Filter keeps records satisfying pred.
func Filter[R comparable](in *Collection[R], pred func(R) bool) *Collection[R] {
	return linear(in, func(recs []R, diffs []Diff, ob *batch[R]) {
		for i, r := range recs {
			if pred(r) {
				ob.add(r, diffs[i])
			}
		}
	})
}

// FlatMap applies f to every record; f calls emit zero or more times per
// record. Each emitted record inherits the input's time and diff.
func FlatMap[A comparable, B comparable](in *Collection[A], f func(rec A, emit func(B))) *Collection[B] {
	return linear(in, func(recs []A, diffs []Diff, ob *batch[B]) {
		var d Diff
		emit := func(r B) { ob.add(r, d) }
		for i, r := range recs {
			d = diffs[i]
			f(r, emit)
		}
	})
}

// Concat merges any number of streams (multiset union).
func Concat[R comparable](cols ...*Collection[R]) *Collection[R] {
	out := newCollection[R](cols[0].s)
	for _, c := range cols {
		c.subscribe(out.emit)
	}
	return out
}

// Negate flips the sign of every diff (multiset negation).
func Negate[R comparable](in *Collection[R]) *Collection[R] {
	return linear(in, func(recs []R, diffs []Diff, ob *batch[R]) {
		ob.recs = append(ob.recs, recs...)
		for _, d := range diffs {
			ob.diffs = append(ob.diffs, -d)
		}
	})
}
