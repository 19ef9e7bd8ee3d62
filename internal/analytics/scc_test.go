package analytics

import (
	"math/rand"
	"runtime"
	"testing"

	"graphsurge/internal/graph"
)

// TestSCCRunnerParkReleasesColumns pins sccRunner.Park: a staged runner
// parked past version 0 lets every phase scope's exchange columns go, so
// its next step grows them again and allocates more than an unparked twin
// stepping the same version, and the parked runner's answer still matches
// the oracle.
func TestSCCRunnerParkReleasesColumns(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	edges := make([]graph.Triple, 2000)
	for i := range edges {
		edges[i] = graph.Triple{Src: uint64(r.Intn(1000)), Dst: uint64(r.Intn(1000)), W: 1}
	}
	// Version 0 is every edge; each later version deletes the next 150.
	const cut = 150
	batches := func(v int) (adds, dels *graph.EdgeBatch) {
		if v == 0 {
			return graph.NewEdgeBatch(edges), nil
		}
		return nil, graph.NewEdgeBatch(edges[(v-1)*cut : v*cut])
	}
	parked, err := SCC{}.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := SCC{}.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	var prev map[VertexValue]bool
	for v := 0; v < 3; v++ {
		adds, dels := batches(v)
		parked.Step(adds, dels)
		twin.Step(adds, dels)
		prev = checkSCCVersion(t, parked, v, edges[v*cut:], prev)
	}
	parked.Park()

	adds, dels := batches(3)
	alloc := func(run Runner) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run.Step(adds, dels)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	unparkedBytes, parkedBytes := alloc(twin), alloc(parked)
	t.Logf("version 3 allocates %d B unparked, %d B parked", unparkedBytes, parkedBytes)
	if parkedBytes <= unparkedBytes {
		t.Fatalf("version 3 allocates %d B parked, %d B unparked: Park left the phase scopes' columns in place", parkedBytes, unparkedBytes)
	}
	checkSCCVersion(t, parked, 3, edges[3*cut:], prev)
}
