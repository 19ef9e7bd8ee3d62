package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"

	"graphsurge/internal/analytics"
)

// This file renders typed responses as the CLI's text output. Rendering
// lives behind the typed Response layer so every front-end — cmd/graphsurge
// and the HTTP server's text projections alike — prints identical bytes
// from identical results, and the output format is pinned by tests against
// the types rather than against ad-hoc printf calls scattered in main.
//
// Every renderer assembles its block in a buffer and issues exactly ONE
// Write. Combined with a LockedWriter that serializes Write calls, blocks
// from concurrent producers (an OnSegment progress callback firing from a
// segment goroutine while the main goroutine prints pool stats) can
// interleave only at block boundaries, never mid-line.

// A LockedWriter serializes Write calls from concurrent renderers onto one
// underlying writer. Each renderer's whole block is a single Write, so
// routing all of a front-end's output through one LockedWriter pins block
// atomicity: run summaries, pool stats and progress lines never shear.
type LockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLockedWriter wraps w. The zero value is not usable; all of a
// process's renderers must share one LockedWriter for the ordering
// guarantee to mean anything.
func NewLockedWriter(w io.Writer) *LockedWriter { return &LockedWriter{w: w} }

// Write forwards one block to the underlying writer under the lock.
func (lw *LockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// WriteRunSummary renders a collection run: the header line followed by the
// per-segment and per-view lines, segments interleaved at the view that
// opens them, exactly as `graphsurge run` prints them.
func WriteRunSummary(w io.Writer, res *RunResult) {
	var buf bytes.Buffer
	mode := res.Mode.String()
	if res.Incremental {
		mode += ", incremental"
	}
	fmt.Fprintf(&buf, "%s on %s (%s): %v total, %v wall, %d splits\n",
		res.Computation, res.Collection, mode, res.Total.Round(1000), res.Wall.Round(1000), res.Splits)
	segAt := make(map[int]SegmentStats, len(res.Segments))
	for _, seg := range res.Segments {
		segAt[seg.Start] = seg
	}
	for _, st := range res.Stats {
		if seg, ok := segAt[st.Index]; ok {
			fmt.Fprintf(&buf, "  segment views [%d,%d): replica setup %v, drain %v\n",
				seg.Start, seg.End, seg.Setup.Round(1000), seg.Drain.Round(1000))
		}
		fmt.Fprintf(&buf, "  view %-3d %-16s %-8s |GV|=%-8d |dC|=%-8d out-diffs=%-8d %v\n",
			st.Index, st.Name, st.Mode, st.ViewSize, st.DiffSize, st.OutputDiffs, st.Duration.Round(1000))
	}
	w.Write(buf.Bytes())
}

// WritePoolStats renders per-pool replica statistics, one line per pool in
// the given (already deterministic) order — one Write for the whole block.
func WritePoolStats(w io.Writer, stats []PoolStat) {
	var buf bytes.Buffer
	for _, ps := range stats {
		fmt.Fprintf(&buf, "pool %s/w=%d: capacity=%d live=%d idle=%d built=%d reused=%d\n",
			ps.Computation, ps.Workers, ps.Capacity, ps.Live, ps.Idle, ps.Built, ps.Reused)
	}
	w.Write(buf.Bytes())
}

// WriteSegmentProgress renders one segment's completion line — the
// streaming form of a run summary's segment line, printed by `run
// -progress` as OnSegment fires from concurrent segment goroutines.
func WriteSegmentProgress(w io.Writer, st SegmentStats) {
	fmt.Fprintf(w, "segment views [%d,%d) done: replica setup %v, drain %v\n",
		st.Start, st.End, st.Setup.Round(1000), st.Drain.Round(1000))
}

// WriteMutation renders an applied mutation batch's one-line summary — the
// same line the GVDL apply statement's typed result prints, so the two
// mutation front-ends (typed request, statement) read identically.
func WriteMutation(w io.Writer, res *MutationApplied) {
	fmt.Fprintf(w, "graph %s: +%d/-%d edges, %d views maintained, now at version %d\n",
		res.Graph, res.Inserted, res.Deleted, res.Maintained, res.Version)
}

// WriteViewRun renders a single-view run's header line.
func WriteViewRun(w io.Writer, res *ViewRunResult) {
	fmt.Fprintf(w, "%s on view %s (%d edges): %v, %d result vertices\n",
		res.Computation, res.View, res.Edges, res.Duration.Round(1000), len(res.Results))
}

// SortedResults returns the per-vertex results ordered by ascending vertex
// ID — the pinned presentation order every front-end uses, so the CLI's
// result listing and the server's NDJSON result stream enumerate vertices
// identically.
func SortedResults(final map[analytics.VertexValue]int64) []analytics.VertexValue {
	items := make([]analytics.VertexValue, 0, len(final))
	for v := range final {
		items = append(items, v)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].V < items[j].V })
	return items
}

// WriteResults renders up to n per-vertex results in SortedResults order.
func WriteResults(w io.Writer, final map[analytics.VertexValue]int64, n int) {
	items := SortedResults(final)
	if n > len(items) {
		n = len(items)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "results (%d vertices, first %d):\n", len(items), n)
	for _, it := range items[:n] {
		fmt.Fprintf(&buf, "  vertex %-10d value %d\n", it.V, it.Val)
	}
	w.Write(buf.Bytes())
}
