package cluster

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/graph"
	"graphsurge/internal/splitting"
)

// sampleSpec builds a fully populated shard for round-trip tests.
func sampleSpec() core.SegmentSpec {
	return core.SegmentSpec{
		Comp:       analytics.Spec{Algorithm: "bfs", Source: 3},
		Workers:    2,
		Collection: "col",
		Start:      4,
		End:        6,
		Names:      []string{"v4", "v5"},
		Modes:      []splitting.Mode{splitting.ModeScratch, splitting.ModeDiff},
		ViewSizes:  []int{3, 4},
		DiffSizes:  []int{3, 1},
		Seed:       graph.NewEdgeBatch([]graph.Triple{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 5}, {Src: 2, Dst: 0, W: 2}}),
		Adds:       []*graph.EdgeBatch{graph.NewEdgeBatch([]graph.Triple{{Src: 0, Dst: 2, W: 7}})},
		// An empty difference set is an empty batch, never a nil element (gob
		// cannot encode nil pointers inside slices).
		Dels: []*graph.EdgeBatch{graph.NewEdgeBatch(nil)},
	}
}

// TestWireRoundTrip pins gob round trips for every type that crosses the
// coordinator/worker boundary: the segment shard (with its seed), per-view
// and per-segment stats, computation params, and a full outcome.
func TestWireRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		in, out any
	}{
		{"SegmentSpec", sampleSpec(), &core.SegmentSpec{}},
		{"ViewStats",
			core.ViewStats{Index: 2, Name: "v2", Mode: splitting.ModeDiff, Duration: 3 * time.Millisecond, ViewSize: 9, DiffSize: 4, OutputDiffs: 2},
			&core.ViewStats{}},
		{"SegmentStats",
			core.SegmentStats{Start: 1, End: 4, Setup: time.Millisecond, Drain: 2 * time.Millisecond},
			&core.SegmentStats{}},
		{"ComputationSpec",
			analytics.Spec{Algorithm: "mpsp", Pairs: []analytics.Pair{{Src: 1, Dst: 2}}},
			&analytics.Spec{}},
		{"SegmentOutcome",
			core.SegmentOutcome{
				Stats:   []core.ViewStats{{Index: 0, Name: "v0", ViewSize: 3}},
				Segment: core.SegmentStats{Start: 0, End: 1},
				Work:    []int64{5, 7},
				IterCap: true,
				Final:   map[analytics.VertexValue]int64{{V: 1, Val: 2}: 1},
			},
			&core.SegmentOutcome{}},
	}
	for _, tc := range cases {
		data, err := EncodeWire(tc.in)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if err := DecodeWire(data, tc.out); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		got := reflect.ValueOf(tc.out).Elem().Interface()
		if !reflect.DeepEqual(got, tc.in) {
			t.Fatalf("%s round trip:\n in  %#v\n out %#v", tc.name, tc.in, got)
		}
	}
}

// TestWireCorruptStream: a corrupt or truncated payload must return an error
// wrapping ErrWire — typed, branchable, and never a panic.
func TestWireCorruptStream(t *testing.T) {
	good, err := EncodeWire(sampleSpec())
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{
		"garbage":   []byte("\x07\xffnot a gob stream at all"),
		"truncated": good[:len(good)/2],
		"empty":     nil,
	}
	for name, data := range payloads {
		var spec core.SegmentSpec
		err := DecodeWire(data, &spec)
		if err == nil {
			t.Fatalf("%s payload decoded without error", name)
		}
		if !errors.Is(err, ErrWire) {
			t.Fatalf("%s payload error %v does not wrap ErrWire", name, err)
		}
	}
}

// TestWireDecodedSpecValidates: a payload that decodes but is internally
// inconsistent (per-view slices shorter than the range) is refused by
// Validate before any dataflow is built for it.
func TestWireDecodedSpecValidates(t *testing.T) {
	bad := sampleSpec()
	bad.Names = bad.Names[:1] // inconsistent with [Start, End)
	data, err := EncodeWire(bad)
	if err != nil {
		t.Fatal(err)
	}
	var spec core.SegmentSpec
	if err := DecodeWire(data, &spec); err != nil {
		t.Fatalf("structurally valid gob refused: %v", err)
	}
	if err := spec.Validate(); err == nil {
		t.Fatal("inconsistent spec passed validation")
	}
}
