package dataflow

// Collection is a differential stream of records of type R: a multiset that
// evolves over the (version, iteration) time lattice. Collections are wiring
// points in the dataflow graph; they hold no data themselves. Operators
// subscribe to a collection and receive every delta batch emitted into it.
type Collection[R comparable] struct {
	s    *Scope
	subs []func(w int, b *batch[R])
}

func newCollection[R comparable](s *Scope) *Collection[R] {
	return &Collection[R]{s: s}
}

// Scope returns the scope the collection belongs to.
func (c *Collection[R]) Scope() *Scope { return c.s }

// subscribe registers a receiver. Must happen during graph construction,
// before any data flows.
func (c *Collection[R]) subscribe(f func(w int, b *batch[R])) {
	c.subs = append(c.subs, f)
}

// emit lends a batch to all subscribers. Called by the producing operator on
// worker w; subscribers either transform-and-forward (fused linear
// operators) or copy it into a node's pending shards (pendings.push).
func (c *Collection[R]) emit(w int, b *batch[R]) {
	if len(b.recs) == 0 {
		return
	}
	for _, f := range c.subs {
		f(w, b)
	}
}

// keyedSubscriber returns a receiver that routes each delta to the worker
// owning its key and pushes it into p.
func keyedSubscriber[K comparable, V comparable](s *Scope, p *pendings[KV[K, V]]) func(int, *batch[KV[K, V]]) {
	return routedSubscriber(s, p, func(kv KV[K, V]) K { return kv.K })
}

// routedSubscriber returns a receiver that routes each delta r to the worker
// owning by(r) and pushes it into p. Worker w splits a batch into parts[w],
// its own recycled scratch, one batch per target worker.
func routedSubscriber[R comparable, N comparable](s *Scope, p *pendings[R], by func(R) N) func(int, *batch[R]) {
	if s.workers == 1 {
		return p.push
	}
	parts := make([][]batch[R], s.workers)
	for w := range parts {
		parts[w] = make([]batch[R], s.workers)
		s.recycles(func() { clear(parts[w]) })
	}
	return func(w int, b *batch[R]) {
		ps := parts[w]
		for tw := range ps {
			ps[tw].reset(b.t, len(b.recs)/len(ps))
			ps[tw].more = b.more / len(ps)
		}
		for i, r := range b.recs {
			ps[partition(s, by(r))].add(r, b.diffs[i])
		}
		for tw := range ps {
			p.push(tw, &ps[tw])
		}
	}
}

// broadcastSubscriber returns a receiver that pushes every delta into p on
// every worker.
func broadcastSubscriber[R comparable](s *Scope, p *pendings[R]) func(int, *batch[R]) {
	return func(_ int, b *batch[R]) {
		for w := range s.workers {
			p.push(w, b)
		}
	}
}
