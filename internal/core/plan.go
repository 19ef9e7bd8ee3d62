package core

import (
	"time"

	"graphsurge/internal/graph"
	"graphsurge/internal/splitting"
	"graphsurge/internal/view"
)

// staticPlan maps a non-adaptive execution mode to its fully precomputable
// plan: diff-only is one segment spanning the collection, scratch is one
// single-view segment per view (embarrassingly parallel). Adaptive plans are
// built online by the planner as the optimizer's models mature; see
// runAdaptive.
func staticPlan(mode ExecMode, k int) splitting.Plan {
	if mode == Scratch {
		return splitting.PlanScratch(k)
	}
	return splitting.PlanDiffOnly(k)
}

// seedScan incrementally replays the difference stream to produce segment
// seeds: the full edge-index list of the view opening each segment. The scan
// is sequential and shared by the static and adaptive paths; seeds are
// built one at a time, at most one ahead of the slots that consume them, so
// peak memory stays proportional to the largest views, not the sum of all
// views.
type seedScan struct {
	stream *view.DiffStream
	sizes  []int
	member []bool
	next   int // next view index to fold into member
}

func newSeedScan(stream *view.DiffStream, numEdges int, sizes []int) *seedScan {
	return &seedScan{stream: stream, sizes: sizes, member: make([]bool, numEdges)}
}

// advance folds views up to and including t into the membership array. The
// sequential executor maintained membership outside its split timer, so
// callers advance untimed and time only the scan in at.
func (ss *seedScan) advance(t int) {
	for ; ss.next <= t; ss.next++ {
		for _, idx := range ss.stream.Adds[ss.next] {
			ss.member[idx] = true
		}
		for _, idx := range ss.stream.Dels[ss.next] {
			ss.member[idx] = false
		}
	}
}

// fork returns an independent copy of the scan for speculative lookahead:
// the copy can advance past views the parent has not reached without
// disturbing it. Membership at any view depends only on the difference
// stream prefix, so a fork advanced to t produces exactly the seed the
// parent would.
func (ss *seedScan) fork() *seedScan {
	member := make([]bool, len(ss.member))
	copy(member, ss.member)
	return &seedScan{stream: ss.stream, sizes: ss.sizes, member: member, next: ss.next}
}

// at returns the full edge-index list of view t, ascending. Successive calls
// must have non-decreasing t (segments are dispatched in collection order).
func (ss *seedScan) at(t int) []uint32 {
	if t == 0 && ss.next <= 1 && len(ss.stream.Dels[0]) == 0 {
		// Opening view (whether or not already folded): membership before it
		// is empty, so the full view is exactly the first difference set —
		// skip the full-graph scan.
		ss.advance(0)
		return ss.stream.Adds[0]
	}
	ss.advance(t)
	full := make([]uint32, 0, ss.sizes[t])
	for idx, in := range ss.member {
		if in {
			full = append(full, uint32(idx))
		}
	}
	return full
}

// seedEntry is a seed built ahead of its segment's dispatch: the columnar
// edge batch plus the scan time spent building it, which is folded into that
// segment's setup cost when it is finally dispatched — the same attribution
// the in-order path gives a seed built at acquisition time. Retaining the
// batch (not an index list) means the segment that eventually takes it steps
// the very same columns, shared by reference.
type seedEntry struct {
	seed  *graph.EdgeBatch
	build time.Duration
}

// seedCache decouples seed *building* from segment *dispatch* order. The
// underlying seedScan replays the difference stream strictly forward, but an
// LPT scheduler dispatches segments out of collection order; the scan cannot
// rewind, so take(t) advances it to t and builds — and retains — the seed of
// every earlier still-undispatched segment start it passes, since those
// segments will be dispatched later. FIFO dispatch retains nothing and
// degenerates to the sequential scan; out-of-order dispatch pays for its
// reordering with retained-seed memory bounded by the sum of
// not-yet-dispatched seed sizes (see DESIGN.md).
//
// A seedCache is not safe for concurrent use; the static dispatcher calls
// take from its one builder goroutine, the adaptive planner from its loop.
type seedCache struct {
	scan   *seedScan
	starts []int // ascending starts of segments not yet built
	built  map[int]seedEntry
	// mat materializes an edge-index list into the columnar batch the
	// segment will step (the run's edgeBatcher).
	mat func(idxs []uint32) *graph.EdgeBatch
}

// newSeedCache wraps a scan with the plan's segment starts. An empty plan
// (adaptive mode, where segment starts are discovered online and arrive in
// ascending order) leaves the cache a pass-through.
func newSeedCache(ss *seedScan, plan splitting.Plan, mat func(idxs []uint32) *graph.EdgeBatch) *seedCache {
	sc := &seedCache{scan: ss, built: make(map[int]seedEntry), mat: mat}
	for _, seg := range plan.Segments {
		sc.starts = append(sc.starts, seg.Start)
	}
	return sc
}

// take returns the seed batch of the segment starting at view t plus the
// time spent building it (the scan and the columnar materialization; the
// membership fold stays untimed in advance, matching the sequential
// executor, which updated membership per view outside the split timer).
func (sc *seedCache) take(t int) (*graph.EdgeBatch, time.Duration) {
	if e, ok := sc.built[t]; ok {
		delete(sc.built, t)
		return e.seed, e.build
	}
	for len(sc.starts) > 0 && sc.starts[0] < t {
		s := sc.starts[0]
		sc.starts = sc.starts[1:]
		sc.scan.advance(s)
		start := time.Now()
		sc.built[s] = seedEntry{seed: sc.mat(sc.scan.at(s)), build: time.Since(start)}
	}
	if len(sc.starts) > 0 && sc.starts[0] == t {
		sc.starts = sc.starts[1:]
	}
	sc.scan.advance(t)
	start := time.Now()
	seed := sc.mat(sc.scan.at(t))
	return seed, time.Since(start)
}

// diffSizes lists every view's difference-set size, the cost models' input.
func diffSizes(stream *view.DiffStream) []int {
	diffs := make([]int, stream.NumViews())
	for t := range diffs {
		diffs[t] = stream.DiffSize(t)
	}
	return diffs
}

// fifoOrder is the identity dispatch permutation: collection order.
func fifoOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
