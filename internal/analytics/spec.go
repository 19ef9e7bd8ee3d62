package analytics

import "fmt"

// Spec is the wire form of a built-in computation: a flat, gob-encodable
// identity (algorithm name plus parameters) that can cross a process
// boundary and be resolved back into a Computation on the other side. The
// cluster layer ships Specs to workers — a Computation itself cannot travel,
// because Build wires operator closures — and the CLI resolves its
// -algorithm flag through the same registry, so the set of algorithms a
// coordinator can shard is exactly the set the CLI can name.
//
// Computations outside the built-in library (embedding callers passing
// custom Build functions) have no Spec; SpecOf reports ok=false for them and
// the cluster layer keeps such runs on the local engine.
type Spec struct {
	// Algorithm is the canonical algorithm name: wcc, bfs, sssp, pagerank,
	// scc, degree or mpsp (the CLI aliases bellman-ford and pr are accepted
	// by Resolve but never produced by SpecOf). The JSON names are the HTTP
	// API's wire schema (core.RunRequest); gob ignores them.
	Algorithm string `json:"algorithm"`
	// Source is the source vertex for bfs and sssp.
	Source uint64 `json:"source,omitempty"`
	// Iterations is PageRank's iteration count (0 = the default).
	Iterations uint32 `json:"iterations,omitempty"`
	// Pairs are MPSP's source-destination queries.
	Pairs []Pair `json:"pairs,omitempty"`
}

// Resolve instantiates the computation a Spec describes.
func (s Spec) Resolve() (Computation, error) {
	switch s.Algorithm {
	case "wcc":
		return WCC{}, nil
	case "bfs":
		return BFS{Source: s.Source}, nil
	case "sssp", "bellman-ford":
		return SSSP{Source: s.Source}, nil
	case "pagerank", "pr":
		return PageRank{Iterations: s.Iterations}, nil
	case "scc":
		return SCC{}, nil
	case "degree":
		return Degree{}, nil
	case "mpsp":
		return MPSP{Pairs: s.Pairs}, nil
	}
	return nil, fmt.Errorf("analytics: unknown algorithm %q", s.Algorithm)
}

// SpecOf returns the Spec describing a built-in computation, inverting
// Resolve. ok is false for computations outside the built-in library, whose
// dataflows only exist as Go closures and therefore cannot be described to
// another process.
func SpecOf(comp Computation) (Spec, bool) {
	switch c := comp.(type) {
	case WCC:
		return Spec{Algorithm: "wcc"}, true
	case BFS:
		return Spec{Algorithm: "bfs", Source: c.Source}, true
	case SSSP:
		return Spec{Algorithm: "sssp", Source: c.Source}, true
	case PageRank:
		return Spec{Algorithm: "pagerank", Iterations: c.Iterations}, true
	case SCC:
		return Spec{Algorithm: "scc"}, true
	case Degree:
		return Spec{Algorithm: "degree"}, true
	case MPSP:
		return Spec{Algorithm: "mpsp", Pairs: c.Pairs}, true
	}
	return Spec{}, false
}
