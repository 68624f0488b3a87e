package core

// Tests for the feedback-driven global refit (RetrainGlobal), the core
// entry point the online retraining pipeline drives.

import (
	"bytes"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
)

// shiftedSamples builds feedback rows from the model's own predictions
// with a constant shift on the training scales — realizable telemetry
// whose best global fit is known to exist.
func shiftedSamples(t *testing.T, tr *Trained, sShift, dShift float64) []FeedbackSample {
	t.Helper()
	cfgs := tr.configSpace()
	var samples []FeedbackSample
	for _, size := range []float64{10, 20} {
		p := apps.Params{"size": size}
		for ph := 0; ph < tr.Phases; ph++ {
			for i, cfg := range cfgs {
				if i%2 == 1 { // every other config: enough rows, some variety
					continue
				}
				diag, err := tr.DiagnosePhase(p, ph, cfg)
				if err != nil {
					t.Fatal(err)
				}
				samples = append(samples, FeedbackSample{
					Params:      p,
					Levels:      append([]int(nil), cfg...),
					Phase:       ph,
					Speedup:     SpeedupFromScale(diag.SpeedupRaw + sShift),
					Degradation: DegradationFromScale(diag.DegRaw + dShift),
				})
			}
		}
	}
	return samples
}

// TestRetrainGlobalDeterministicRoundTrip refits the global models from
// feedback rows on two clones of the same bytes and requires bitwise
// identical artifacts (the core half of invariant D14), plus a clean
// save/load round trip of the refit model.
func TestRetrainGlobalDeterministicRoundTrip(t *testing.T) {
	tr, err := Train(apps.NewRunner(toyApp{}), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	samples := shiftedSamples(t, tr, 0.3, 0.05)

	run := func() []byte {
		clone, err := LoadTrained(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		refit, err := clone.RetrainGlobal(samples, nil, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(refit) != tr.Phases {
			t.Fatalf("refit phases %v, want all %d", refit, tr.Phases)
		}
		var out bytes.Buffer
		if err := clone.Save(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("RetrainGlobal is not deterministic for identical inputs")
	}

	refitted, err := LoadTrained(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("refit model does not round-trip: %v", err)
	}
	// The refit must have absorbed the injected shift: predictions move
	// toward the shifted observations.
	p := apps.Params{"size": 10}
	cfg := approx.Config{1, 1}
	before, err := tr.DiagnosePhase(p, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := refitted.DiagnosePhase(p, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after.SpeedupRaw <= before.SpeedupRaw {
		t.Fatalf("refit did not absorb the +0.3 speedup shift: %.4f -> %.4f",
			before.SpeedupRaw, after.SpeedupRaw)
	}

	// Pooled groups: refitting phases {0,1} as one group and {2,3} as
	// another still succeeds and reports every phase refit.
	clone, err := LoadTrained(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	refit, err := clone.RetrainGlobal(samples, [][]int{{0, 1}, {2, 3}}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(refit) != tr.Phases {
		t.Fatalf("pooled refit phases %v, want all %d", refit, tr.Phases)
	}

	// No rows at all: ErrNoRefit, model untouched.
	clone2, err := LoadTrained(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clone2.RetrainGlobal(nil, nil, 4, 7); err == nil {
		t.Fatal("RetrainGlobal with no samples must fail")
	}
}
