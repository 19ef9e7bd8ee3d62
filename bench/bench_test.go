package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// inputHashes renders every generated input of a seed: the CSV files of each
// workload and the request schedules of the two request-shaped ones.
func inputHashes(seed int64) map[string]string {
	e := env{seed: seed, sc: smokeScale}
	return map[string]string{
		"similar.diff":     similarDiff.input(e).hash(),
		"disjoint.scratch": disjointScratch.input(e).hash(),
		"disjoint.cluster": disjointCluster.input(e).hash(),
		"mixed.adaptive":   mixedAdaptive.input(e).hash(),
		"create.ordered":   communityInput("community", seed, e.sc).hash(),
		"create.gvdl":      hashStrings(perturbationGVDL("c", graphName, perturbation(seed, 10, 5))),
		"mutate.csv":       temporalInput("temporal", seed, e.sc.mNodes, e.sc.mEdges, loadShare).hash(),
		"mutate.schedule":  mutationHash(seed, e.sc, 10),
		"serve.schedule":   scheduleHash(seed, e.sc, 200),
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, again, b := inputHashes(7), inputHashes(7), inputHashes(8)
	if !reflect.DeepEqual(a, again) {
		t.Fatalf("same seed, different inputs:\n%v\n%v", a, again)
	}
	for k := range a {
		if a[k] == b[k] {
			t.Errorf("%s: seeds 7 and 8 generate the same input %s", k, a[k])
		}
	}
	if a["disjoint.scratch"] != a["disjoint.cluster"] {
		t.Errorf("disjoint.scratch and disjoint.cluster must run byte-identical inputs")
	}
}

func TestStatistics(t *testing.T) {
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("median odd", median([]float64{5, 1, 3}), 3)
	near("median even", median([]float64{4, 1, 3, 2}), 2.5)
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	near("p90 of 1..10", percentile(xs, 90), 9)
	near("p50 of 1..10", percentile(xs, 50), 5)
	near("p100", percentile(xs, 100), 10)
	near("p90 of one", percentile([]float64{7}, 90), 7)
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(xs)
	near("q1", q1, 2.75)
	near("q3", q3, 8.25)
	near("spread", spread(xs), (8.25-2.75)/5.5)
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 5, 2})
	near("q1 of five", q1, 1.5)
	near("q3 of five", q3, 4.5)
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "core", Start: 10, End: 60},
		{ID: 3, Parent: 1, Layer: "core", Start: 50, End: 90},     // overlaps 2: counted once
		{ID: 4, Parent: 2, Layer: "dataflow", Start: 0, End: 30},  // clipped to its parent: 10..30
		{ID: 5, Parent: 3, Layer: "dataflow", Start: 95, End: 99}, // outside its parent: ignored
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 30, 3: 40, 4: 30, 5: 4} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	layers := layerSelf(spans)
	if layers["core"] != 70 || layers["dataflow"] != 34 || layers["bench"] != 20 {
		t.Errorf("per-layer self time = %v", layers)
	}

	// Reported leaves fill lanes in order, starting at the parent's start.
	tr := newTracer()
	p := tr.start(0, "op", "core")
	tr.reported(p, 2, []leaf{
		{{"a", "x", 10}, {"b", "y", 5}},
		{{"c", "x", 4}},
		{{"d", "x", 1}},
	})
	tr.end(p)
	got := tr.snapshot()
	base := got[0].Start
	want := [][2]int64{{0, 10}, {10, 15}, {0, 4}, {4, 5}}
	for i, w := range want {
		s := got[i+1]
		if s.Start-base != w[0] || s.End-base != w[1] || !s.Reported || s.Parent != p {
			t.Errorf("leaf %d = %+v, want %v after the parent's start", i, s, w)
		}
	}
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nprogram reports %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v\nprogram reports %+v", f.PerLayer, perLayer)
	}
	if f.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, program default %d", f.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %q (%s), program has %q (%s)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
}

// TestSmoke runs every workload end to end at the smoke scale, untraced and
// traced, and checks that what would be printed round-trips as JSON carrying
// exactly BENCHMARK.json's metric names.
func TestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := measure(ctx, w, env{seed: 3, sc: smokeScale, dir: dir}, 0.01, traced, dir)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v", w.name, traced, rep.Failed, rep.Attempted, rep.errs)
			}
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Correct   *bool             `json:"correct"`
				Attempted *int              `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal(line, &back); err != nil || back.Correct == nil || back.Attempted == nil || back.Failed == nil {
				t.Fatalf("%s: result line %s does not round-trip: %v", w.name, line, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if _, err := os.Stat(dir + "/trace." + w.name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if len(back.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): %d metrics, want %d", w.name, traced, len(back.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := back.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", w.name, d.Name, m, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, d.Name, m.Value)
				}
			}
		}
	}
}
