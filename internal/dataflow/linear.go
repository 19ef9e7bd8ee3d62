package dataflow

// Linear operators are fused: they transform delta batches inline inside
// subscription closures and never materialize state or become scheduler
// nodes. This mirrors how Timely/Differential pipelines fuse map/filter
// chains between exchanges.

// linear wires a fused operator: transform fills ob, the calling worker's
// recycled output batch (already at b's time), from each input batch b.
func linear[A comparable, B comparable](in *Collection[A], transform func(b *batch[A], ob *batch[B])) *Collection[B] {
	out := newCollection[B](in.s)
	obs := make([]batch[B], in.s.workers)
	in.s.recycles(func() { clear(obs) })
	in.subscribe(func(w int, b *batch[A]) {
		ob := obs[w].reset(b.t, len(b.recs))
		transform(b, ob)
		out.emit(w, ob)
	})
	return out
}

// Map applies f to every record, preserving times and diffs.
func Map[A comparable, B comparable](in *Collection[A], f func(A) B) *Collection[B] {
	return linear(in, func(b *batch[A], ob *batch[B]) {
		for _, r := range b.recs {
			ob.recs = append(ob.recs, f(r))
		}
		ob.diffs = append(ob.diffs, b.diffs...)
	})
}

// Filter keeps records satisfying pred.
func Filter[R comparable](in *Collection[R], pred func(R) bool) *Collection[R] {
	return linear(in, func(b *batch[R], ob *batch[R]) {
		for i, r := range b.recs {
			if pred(r) {
				ob.add(r, b.diffs[i])
			}
		}
	})
}

// FlatMap applies f to every record; f calls emit zero or more times per
// record. Each emitted record inherits the input's time and diff.
func FlatMap[A comparable, B comparable](in *Collection[A], f func(rec A, emit func(B))) *Collection[B] {
	return linear(in, func(b *batch[A], ob *batch[B]) {
		var d Diff
		emit := func(r B) { ob.add(r, d) }
		for i, r := range b.recs {
			d = b.diffs[i]
			f(r, emit)
		}
	})
}

// Concat merges two streams (multiset union).
func Concat[R comparable](a, b *Collection[R]) *Collection[R] {
	return ConcatAll(a, b)
}

// ConcatAll merges any number of streams.
func ConcatAll[R comparable](cols ...*Collection[R]) *Collection[R] {
	out := newCollection[R](cols[0].s)
	for _, c := range cols {
		c.subscribe(out.emit)
	}
	return out
}

// Negate flips the sign of every diff (multiset negation).
func Negate[R comparable](in *Collection[R]) *Collection[R] {
	return linear(in, func(b *batch[R], ob *batch[R]) {
		ob.recs = append(ob.recs, b.recs...)
		for _, d := range b.diffs {
			ob.diffs = append(ob.diffs, -d)
		}
	})
}

// Inspect invokes f on every delta flowing through, for debugging, and
// forwards the stream unchanged.
func Inspect[R comparable](in *Collection[R], f func(Delta[R])) *Collection[R] {
	out := newCollection[R](in.s)
	in.subscribe(func(w int, b *batch[R]) {
		for i, r := range b.recs {
			f(Delta[R]{r, b.t, b.diffs[i]})
		}
		out.emit(w, b)
	})
	return out
}
