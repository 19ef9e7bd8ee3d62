package splitting

import (
	"math"
	"testing"
	"testing/quick"
)

func TestModelNoData(t *testing.T) {
	var m Model
	if _, ok := m.Predict(5); ok {
		t.Fatal("prediction without data")
	}
	if m.Count() != 0 {
		t.Fatal("count")
	}
}

func TestModelOnePointProportional(t *testing.T) {
	var m Model
	m.Observe(10, 2)
	y, ok := m.Predict(20)
	if !ok || math.Abs(y-4) > 1e-9 {
		t.Fatalf("got %v %v", y, ok)
	}
}

func TestModelRecoverLine(t *testing.T) {
	// Property: a model fed points from y = a + b·x recovers the line.
	f := func(a8, b8 uint8) bool {
		a, b := float64(a8)/8, float64(b8)/16
		var m Model
		for x := 1.0; x <= 6; x++ {
			m.Observe(x, a+b*x)
		}
		y, ok := m.Predict(10)
		return ok && math.Abs(y-(a+b*10)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelDegenerateX(t *testing.T) {
	var m Model
	m.Observe(5, 2)
	m.Observe(5, 4)
	y, ok := m.Predict(100)
	if !ok || math.Abs(y-3) > 1e-9 {
		t.Fatalf("got %v %v", y, ok)
	}
	// Predictions never go negative.
	m2 := Model{}
	m2.Observe(1, 10)
	m2.Observe(2, 1)
	if y, _ := m2.Predict(100); y < 0 {
		t.Fatalf("negative prediction %v", y)
	}
}

func TestBootstrapSequence(t *testing.T) {
	var o Optimizer
	if o.Decide(0, 100, 100) != ModeScratch {
		t.Fatal("view 0 must run from scratch")
	}
	if o.Decide(1, 100, 10) != ModeDiff {
		t.Fatal("view 1 must run differentially")
	}
}

func TestAdaptsToFasterScratch(t *testing.T) {
	// Differential runs cost 10x per diff unit vs scratch per size unit:
	// the optimizer should switch to scratch.
	o := Optimizer{BatchSize: 2}
	o.Decide(0, 100, 100)
	o.ObserveScratch(100, 100) // 1 work unit per size unit
	o.Decide(1, 100, 50)
	o.ObserveDiff(50, 500) // 10 per diff unit

	m := o.Decide(2, 100, 50) // predicted: scratch 100, diff 500
	if m != ModeScratch {
		t.Fatalf("expected scratch, got %v", m)
	}
	// Batch: view 3 reuses the decision without consulting models.
	if o.Decide(3, 1, 1) != ModeScratch {
		t.Fatal("batched decision not sticky")
	}
}

func TestAdaptsToFasterDiff(t *testing.T) {
	o := Optimizer{BatchSize: 1}
	o.Decide(0, 1000, 1000)
	o.ObserveScratch(1000, 1000)
	o.Decide(1, 1000, 10)
	o.ObserveDiff(10, 5)

	if m := o.Decide(2, 1000, 10); m != ModeDiff {
		t.Fatalf("expected diff, got %v", m)
	}
}

func TestDecisionUsesSizes(t *testing.T) {
	// Same models, different upcoming diff sizes flip the decision.
	o := Optimizer{BatchSize: 1}
	o.Decide(0, 100, 0)
	o.ObserveScratch(100, 100)
	o.Decide(1, 100, 10)
	o.ObserveDiff(10, 20) // 2 per diff unit

	if m := o.Decide(2, 100, 10); m != ModeDiff { // 100 vs 20
		t.Fatalf("small diff: got %v", m)
	}
	if m := o.Decide(3, 100, 200); m != ModeScratch { // 100 vs 400
		t.Fatalf("large diff: got %v", m)
	}
}

func TestModeString(t *testing.T) {
	if ModeDiff.String() != "diff" || ModeScratch.String() != "scratch" {
		t.Fatal("Mode.String")
	}
}

func TestBatchExpiryAllowsModeSwitch(t *testing.T) {
	// After a batch window ends, new observations can flip the decision —
	// the mid-collection adaptation the paper's Caut experiment relies on.
	o := Optimizer{BatchSize: 3}
	o.Decide(0, 100, 0)
	o.ObserveScratch(100, 100)
	o.Decide(1, 100, 10)
	o.ObserveDiff(10, 10) // diff looks cheap

	if m := o.Decide(2, 100, 10); m != ModeDiff { // batch covers views 2-4
		t.Fatalf("view 2: %v", m)
	}
	// Differential turns out slow on the next observations.
	o.ObserveDiff(10, 900)
	if m := o.Decide(3, 100, 10); m != ModeDiff {
		t.Fatal("view 3 must reuse the batch decision")
	}
	o.ObserveDiff(10, 900)
	o.Decide(4, 100, 10)
	// New batch at view 5: the updated diff model flips the mode.
	if m := o.Decide(5, 100, 10); m != ModeScratch {
		t.Fatalf("view 5: %v (diff model should now predict ~600 > 100)", m)
	}
}

func TestDefaultBatchSize(t *testing.T) {
	var o Optimizer
	o.Decide(0, 10, 0)
	o.Decide(1, 10, 5)
	o.ObserveScratch(10, 10)
	o.ObserveDiff(5, 100)
	first := o.Decide(2, 10, 5)
	// Views 3..11 are inside the default ℓ=10 batch; the decision must not
	// be recomputed even as observations change.
	o.ObserveDiff(5, 0)
	for i := 3; i < 12; i++ {
		if o.Decide(i, 10, 5) != first {
			t.Fatalf("view %d re-decided inside the default batch", i)
		}
	}
}

// TestPredictionAPI pins the prediction surface Decide reads: the models
// predict nothing while cold, peekMode falls back exactly as Decide does and
// agrees with it at a fresh decision point, and peekMode does not advance
// the decision state.
func TestPredictionAPI(t *testing.T) {
	o := &Optimizer{BatchSize: 3}
	if _, ok := o.scratch.Predict(100); ok {
		t.Fatal("cold scratch model predicted")
	}
	if _, ok := o.diff.Predict(100); ok {
		t.Fatal("cold diff model predicted")
	}
	if o.batch() != 3 {
		t.Fatalf("batch() = %d", o.batch())
	}
	// Cold models: peekMode must fall back exactly as Decide does (diff).
	if o.peekMode(100, 10) != ModeDiff {
		t.Fatal("cold peekMode != ModeDiff")
	}

	// Scratch costs 1 work unit per unit size, diff 10 per unit: scratch wins.
	o.ObserveScratch(100, 100)
	o.ObserveScratch(200, 200)
	o.ObserveDiff(10, 100)
	o.ObserveDiff(20, 200)

	st, ok := o.scratch.Predict(300)
	if !ok || st < 250 || st > 350 {
		t.Fatalf("scratch.Predict(300) = %v, %v", st, ok)
	}
	dt, ok := o.diff.Predict(50)
	if !ok || dt < 400 || dt > 600 {
		t.Fatalf("diff.Predict(50) = %v, %v", dt, ok)
	}

	// peekMode must agree with Decide at a fresh decision point, and must
	// not advance the decision state the way Decide does.
	peek := o.peekMode(300, 50)
	o.Decide(0, 0, 0) // bootstrap
	o.Decide(1, 0, 0)
	before := o.decided
	if before != 2 {
		t.Fatalf("decided after bootstrap = %d", before)
	}
	if again := o.peekMode(300, 50); again != peek {
		t.Fatalf("peekMode unstable: %v then %v", peek, again)
	}
	if o.decided != before {
		t.Fatal("peekMode advanced the decision state")
	}
	if got := o.Decide(2, 300, 50); got != peek {
		t.Fatalf("Decide(2) = %v, peekMode said %v", got, peek)
	}
	if o.decided != 2+o.batch() {
		t.Fatalf("decided after Decide = %d", o.decided)
	}
}
