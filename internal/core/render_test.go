package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/splitting"
)

// TestSortedResultsOrder pins the presentation order of vertex-value
// output: ascending vertex ID, regardless of map iteration order. Both the
// CLI's result listing and the server's NDJSON result stream enumerate
// through SortedResults, so this is the one place the order is defined.
func TestSortedResultsOrder(t *testing.T) {
	final := map[analytics.VertexValue]int64{
		{V: 9, Val: 1}: 1,
		{V: 2, Val: 7}: 1,
		{V: 5, Val: 3}: 1,
		{V: 1, Val: 9}: 1,
	}
	for round := 0; round < 10; round++ {
		items := SortedResults(final)
		var got []uint64
		for _, it := range items {
			got = append(got, it.V)
		}
		want := []uint64{1, 2, 5, 9}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: order %v, want %v", round, got, want)
			}
		}
	}
}

// TestWriteResultsFormat pins the exact bytes of the result listing —
// header, truncation to n, and the padded vertex lines.
func TestWriteResultsFormat(t *testing.T) {
	final := map[analytics.VertexValue]int64{
		{V: 3, Val: 30}:   1,
		{V: 1, Val: 10}:   1,
		{V: 200, Val: -2}: 1,
	}
	var sb strings.Builder
	WriteResults(&sb, final, 2)
	want := "results (3 vertices, first 2):\n" +
		"  vertex 1          value 10\n" +
		"  vertex 3          value 30\n"
	if sb.String() != want {
		t.Fatalf("WriteResults rendered:\n%q\nwant:\n%q", sb.String(), want)
	}
}

// TestWriteRunSummaryFormat pins the run summary rendering against a
// synthetic result: header line, segment lines interleaved at their start
// views, and the per-view lines.
func TestWriteRunSummaryFormat(t *testing.T) {
	res := &RunResult{
		Computation: "wcc",
		Collection:  "cc",
		Mode:        Scratch,
		Total:       3 * time.Millisecond,
		Wall:        2 * time.Millisecond,
		Splits:      1,
		Segments: []SegmentStats{
			{Start: 0, End: 1, Setup: time.Millisecond, Drain: time.Millisecond},
			{Start: 1, End: 2, Setup: 2 * time.Millisecond, Drain: time.Millisecond},
		},
		Stats: []ViewStats{
			{Index: 0, Name: "a", Mode: splitting.ModeScratch, Duration: time.Millisecond, ViewSize: 10, DiffSize: 10, OutputDiffs: 4},
			{Index: 1, Name: "b", Mode: splitting.ModeScratch, Duration: 2 * time.Millisecond, ViewSize: 8, DiffSize: 5, OutputDiffs: 2},
		},
	}
	var sb strings.Builder
	WriteRunSummary(&sb, res)
	want := "wcc on cc (scratch): 3ms total, 2ms wall, 1 splits\n" +
		"  segment views [0,1): replica setup 1ms, drain 1ms\n" +
		"  view 0   a                scratch  |GV|=10       |dC|=10       out-diffs=4        1ms\n" +
		"  segment views [1,2): replica setup 2ms, drain 1ms\n" +
		"  view 1   b                scratch  |GV|=8        |dC|=5        out-diffs=2        2ms\n"
	if sb.String() != want {
		t.Fatalf("WriteRunSummary rendered:\n%q\nwant:\n%q", sb.String(), want)
	}
}

// TestLockedWriterBlockAtomicity pins the interleaving contract the CLI's
// -progress mode depends on: with every renderer routed through one
// LockedWriter, concurrent multi-line blocks (run summaries, pool stats)
// and progress lines interleave only at block boundaries — the output is
// exactly a permutation of whole blocks, never sheared lines. The test
// renders distinguishable blocks from many goroutines and then re-parses
// the stream as a sequence of known blocks; any mid-block interleaving
// breaks the parse.
func TestLockedWriterBlockAtomicity(t *testing.T) {
	const writers = 8
	const rounds = 25

	summaryFor := func(i int) *RunResult {
		return &RunResult{
			Computation: "wcc",
			Collection:  fmt.Sprintf("c%d", i),
			Mode:        Scratch,
			Total:       time.Millisecond,
			Wall:        time.Millisecond,
			Splits:      1,
			Segments: []SegmentStats{
				{Start: 0, End: 2, Setup: time.Millisecond, Drain: time.Millisecond},
			},
			Stats: []ViewStats{
				{Index: 0, Name: "a", Mode: splitting.ModeScratch, Duration: time.Millisecond, ViewSize: 4, DiffSize: 4, OutputDiffs: 1},
				{Index: 1, Name: "b", Mode: splitting.ModeScratch, Duration: time.Millisecond, ViewSize: 3, DiffSize: 2, OutputDiffs: 1},
			},
		}
	}
	poolsFor := func(i int) []PoolStat {
		return []PoolStat{
			{Computation: "wcc", Workers: i, Capacity: 2, Live: 1, Idle: 1, Built: 3, Reused: 5},
			{Computation: "prank", Workers: i, Capacity: 2, Live: 2, Built: 2, Reused: 1},
		}
	}
	progressFor := func(i int) SegmentStats {
		return SegmentStats{Start: i, End: i + 1, Setup: time.Millisecond, Drain: 2 * time.Millisecond}
	}

	// Render each writer's three blocks once, single-threaded, to know the
	// exact byte sequences the concurrent phase must keep intact.
	var blocks []string
	for i := 0; i < writers; i++ {
		var summary, pools, progress strings.Builder
		WriteRunSummary(&summary, summaryFor(i))
		WritePoolStats(&pools, poolsFor(i))
		WriteSegmentProgress(&progress, progressFor(i))
		blocks = append(blocks, summary.String(), pools.String(), progress.String())
	}

	var buf bytes.Buffer
	out := NewLockedWriter(&buf)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				WriteRunSummary(out, summaryFor(i))
				WritePoolStats(out, poolsFor(i))
				WriteSegmentProgress(out, progressFor(i))
			}
		}(i)
	}
	wg.Wait()

	rest := buf.String()
	parsed := 0
	for rest != "" {
		matched := false
		for _, b := range blocks {
			if strings.HasPrefix(rest, b) {
				rest = rest[len(b):]
				parsed++
				matched = true
				break
			}
		}
		if !matched {
			head := rest
			if len(head) > 200 {
				head = head[:200]
			}
			t.Fatalf("output sheared mid-block after %d whole blocks; next bytes:\n%q", parsed, head)
		}
	}
	if want := writers * rounds * 3; parsed != want {
		t.Fatalf("parsed %d whole blocks, want %d", parsed, want)
	}
}
