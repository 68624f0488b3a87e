package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	_, tr := trainToy(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrained(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Phases != tr.Phases || len(loaded.Blocks) != len(tr.Blocks) {
		t.Fatalf("metadata changed: %d/%d vs %d/%d", loaded.Phases, len(loaded.Blocks), tr.Phases, len(tr.Blocks))
	}
	p := apps.DefaultParams(toyApp{})
	for ph := 0; ph < tr.Phases; ph++ {
		for _, cfg := range []approx.Config{{1, 0}, {3, 2}, {0, 1}} {
			s1, d1, err := tr.PredictPhase(p, ph, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			s2, d2, err := loaded.PredictPhase(p, ph, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if s1 != s2 || d1 != d2 {
				t.Fatalf("phase %d cfg %v: predictions differ after reload: (%g,%g) vs (%g,%g)",
					ph, cfg, s1, d1, s2, d2)
			}
		}
	}
	// The optimizer must produce the identical schedule from the loaded
	// models.
	sched1, _, err := tr.Optimize(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	sched2, _, err := loaded.Optimize(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sched1.String() != sched2.String() {
		t.Fatalf("schedules differ after reload:\n%s\n%s", sched1, sched2)
	}
	if len(loaded.Records) != 0 {
		t.Fatal("records should not be persisted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      "hello",
		"wrong version": `{"version": 99}`,
		"empty":         `{"version": 1, "phases": 0, "blocks": [], "classes": {}}`,
		"unknown field": `{"version": 1, "bogus": 1}`,
	}
	for name, body := range cases {
		if _, err := LoadTrained(strings.NewReader(body)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestLoadRejectsInconsistentPhases(t *testing.T) {
	_, tr := trainToy(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the phase count.
	body := strings.Replace(buf.String(), `"phases": 4`, `"phases": 3`, 1)
	if _, err := LoadTrained(strings.NewReader(body)); err == nil {
		t.Fatal("accepted model file with mismatched phase count")
	}
}

// TestLoadCorruptModelCorpus drives LoadTrained over a corpus of
// systematically corrupted model files: every case must produce an error
// — never a panic, and never a silently loaded model. The confidence-band
// cases are the regression for the Banded.Validate fix: empty bands or
// mismatched edges used to pass loading and panic with an index
// out-of-range inside conf.Banded.band during Optimize.
func TestLoadCorruptModelCorpus(t *testing.T) {
	_, tr := trainToy(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// mutate decodes the valid file into generic JSON, applies f, and
	// re-encodes — structural corruption without string surgery.
	mutate := func(f func(m map[string]any)) string {
		var m map[string]any
		if err := json.Unmarshal(valid, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// firstPhase returns phases[0] of the lexicographically first class.
	firstPhase := func(m map[string]any) map[string]any {
		classes := m["classes"].(map[string]any)
		sigs := make([]string, 0, len(classes))
		for sig := range classes {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		return classes[sigs[0]].(map[string]any)["phases"].([]any)[0].(map[string]any)
	}

	cases := map[string]string{
		"truncated json":  string(valid[:len(valid)/2]),
		"truncated early": string(valid[:40]),
		"version skew": mutate(func(m map[string]any) {
			m["version"] = 99.0
		}),
		"wrong phase count": mutate(func(m map[string]any) {
			m["phases"] = float64(tr.Phases + 1)
		}),
		"no blocks": mutate(func(m map[string]any) {
			m["blocks"] = []any{}
		}),
		"empty speedup bands": mutate(func(m map[string]any) {
			firstPhase(m)["speedup_ci"] = map[string]any{"Edges": []any{}, "Bands": []any{}, "P": 0.95}
		}),
		"empty degradation bands": mutate(func(m map[string]any) {
			firstPhase(m)["degradation_ci"] = map[string]any{"Edges": []any{}, "Bands": []any{}, "P": 0.95}
		}),
		"edge count mismatch": mutate(func(m map[string]any) {
			ci := firstPhase(m)["speedup_ci"].(map[string]any)
			ci["Edges"] = []any{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}
		}),
		"unsorted edges": mutate(func(m map[string]any) {
			firstPhase(m)["degradation_ci"] = map[string]any{
				"Edges": []any{2.0, 1.0},
				"Bands": []any{
					map[string]any{"HalfWidth": 0.1, "P": 0.95},
					map[string]any{"HalfWidth": 0.2, "P": 0.95},
					map[string]any{"HalfWidth": 0.3, "P": 0.95},
				},
				"P": 0.95,
			}
		}),
		"negative half-width": mutate(func(m map[string]any) {
			firstPhase(m)["speedup_ci"] = map[string]any{
				"Bands": []any{map[string]any{"HalfWidth": -1.0, "P": 0.95}},
				"P":     0.95,
			}
		}),
	}
	for name, body := range cases {
		loaded, err := LoadTrained(strings.NewReader(body))
		if err == nil {
			t.Fatalf("%s: corrupt model file loaded without error", name)
		}
		if loaded != nil {
			t.Fatalf("%s: corrupt load returned a model alongside the error", name)
		}
	}

	// The unmodified file still loads, and its bands pass validation.
	if _, err := LoadTrained(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
}

func TestSaveLoadWithControlFlowTree(t *testing.T) {
	// The vidpipe-style two-class case exercises the tree export path.
	runner := apps.NewRunner(twoPathApp{})
	opts := fastOptions()
	tr, err := Train(runner, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ControlFlow == nil {
		t.Fatal("expected a control-flow classifier for a two-path app")
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrained(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ControlFlow == nil {
		t.Fatal("control-flow classifier lost in round trip")
	}
	for _, mode := range []float64{0, 1} {
		p := apps.Params{"size": 10, "mode": mode}
		s1, d1, err := tr.PredictPhase(p, 0, approx.Config{2, 1}, false)
		if err != nil {
			t.Fatal(err)
		}
		s2, d2, err := loaded.PredictPhase(p, 0, approx.Config{2, 1}, false)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 || d1 != d2 {
			t.Fatalf("mode %v: predictions differ after reload", mode)
		}
	}
}

// TestSaveLoadCalibrationRoundTrip pins the calibration persistence the
// closed-loop serving layer depends on: a model recalibrated from
// feedback must predict identically after a save/load round trip, so a
// promoted shadow version reproduces byte-identical dispatches on a
// fresh server started from its serialized form.
func TestSaveLoadCalibrationRoundTrip(t *testing.T) {
	_, tr := trainToy(t)
	spd := make([]float64, tr.Phases)
	deg := make([]float64, tr.Phases)
	for ph := range spd {
		spd[ph] = 0.05 * float64(ph+1)
		deg[ph] = -0.02 * float64(ph+1)
	}
	if err := tr.SetCalibration(spd, deg); err != nil {
		t.Fatal(err)
	}
	if !tr.Calibrated() {
		t.Fatal("SetCalibration did not install shifts")
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrained(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Calibrated() {
		t.Fatal("calibration lost in round trip")
	}
	gotSpd, gotDeg, ok := loaded.CalibrationShifts()
	if !ok {
		t.Fatal("CalibrationShifts reports uncalibrated after load")
	}
	for ph := range spd {
		if gotSpd[ph] != spd[ph] || gotDeg[ph] != deg[ph] {
			t.Fatalf("phase %d shifts changed: (%g,%g) vs (%g,%g)", ph, gotSpd[ph], gotDeg[ph], spd[ph], deg[ph])
		}
	}
	p := apps.DefaultParams(toyApp{})
	for ph := 0; ph < tr.Phases; ph++ {
		s1, d1, err := tr.PredictPhase(p, ph, approx.Config{2, 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		s2, d2, err := loaded.PredictPhase(p, ph, approx.Config{2, 1}, true)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 || d1 != d2 {
			t.Fatalf("phase %d: calibrated predictions differ after reload", ph)
		}
	}
	// A second round trip is byte-stable: the serialized promoted model is
	// the canonical form the lifecycle layer content-hashes.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("save/load/save is not byte-stable for a calibrated model")
	}

	// Corrupt calibration blocks must fail at load, not serve skewed
	// predictions.
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	m["calibration"].(map[string]any)["speedup"] = []any{1.0}
	bad, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrained(bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted calibration block with wrong phase count")
	}
}

// TestDiagnosePhaseMatchesPrediction pins DiagnosePhase to the live
// prediction path: applying the band's pessimistic edges to the raw
// predictions must reproduce PredictPhase's conservative output (up to
// the final clamp), since the feedback loop's exceedance test assumes the
// diag values are exactly what the optimizer saw.
func TestDiagnosePhaseMatchesPrediction(t *testing.T) {
	_, tr := trainToy(t)
	p := apps.DefaultParams(toyApp{})
	for ph := 0; ph < tr.Phases; ph++ {
		for _, cfg := range []approx.Config{{1, 0}, {3, 2}, {0, 1}} {
			diag, err := tr.DiagnosePhase(p, ph, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, d, err := tr.PredictPhase(p, ph, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			wantS := clampF(SpeedupFromScale(diag.SpeedupBand.Lower(diag.SpeedupRaw)), 0.02, 50)
			wantD := clampF(DegradationFromScale(diag.DegBand.Upper(diag.DegRaw)), 0, apps.MaxDegradation)
			if s != wantS || d != wantD {
				t.Fatalf("phase %d cfg %v: diag-reconstructed (%g,%g) != conservative prediction (%g,%g)",
					ph, cfg, wantS, wantD, s, d)
			}
		}
	}
	if _, err := tr.DiagnosePhase(p, tr.Phases, approx.Config{0, 0}); err == nil {
		t.Fatal("accepted out-of-range phase")
	}
}

// legacyPlan is one entry of testdata/legacy-bench-plans.golden.json.
type legacyPlan struct {
	Params   apps.Params
	Budget   float64
	Schedule approx.Schedule
	Pred     Prediction
}

func loadModelFile(t *testing.T, name string) *Trained {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrained(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tr
}

// TestLoadLegacyFrontLibraryModel loads bench-app models saved by a build
// that still had the Pareto-front plan library: one trained with the
// library on (an "options" FrontLibrary key plus a top-level
// front_library block) and the same model without it (the FrontLibrary
// key only). Both must load under DisallowUnknownFields, reproduce the
// plans that build served (testdata/legacy-bench-plans.golden.json), give
// byte-identical plans at inputs the models never saw, and re-save to
// the same bytes with neither legacy key.
func TestLoadLegacyFrontLibraryModel(t *testing.T) {
	legacy := loadModelFile(t, "legacy-bench-front-library.json")
	plain := loadModelFile(t, "legacy-bench-plain.json")

	golden, err := os.ReadFile(filepath.Join("testdata", "legacy-bench-plans.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []legacyPlan
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	got := make([]legacyPlan, len(want))
	for i, w := range want {
		sched, pred, err := legacy.Optimize(w.Params, w.Budget)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = legacyPlan{w.Params, w.Budget, sched, pred}
	}
	enc, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, golden) {
		t.Fatalf("legacy model no longer serves the plans it served before:\n got %s\nwant %s", enc, golden)
	}

	rng := rand.New(rand.NewSource(29))
	for _, p := range randomParams(benchApp{}.Params(), 20, rng) {
		b := 30 * rng.Float64()
		s1, p1, err := legacy.Optimize(p, b)
		if err != nil {
			t.Fatal(err)
		}
		s2, p2, err := plain.Optimize(p, b)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := planBytes(t, s1, p1), planBytes(t, s2, p2); !bytes.Equal(g, w) {
			t.Fatalf("params %v budget %g: library-saved model plans %s, plain model %s", p, b, g, w)
		}
	}

	var lb, pb bytes.Buffer
	if err := legacy.Save(&lb); err != nil {
		t.Fatal(err)
	}
	if err := plain.Save(&pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb.Bytes(), pb.Bytes()) {
		t.Fatal("re-saved legacy models differ")
	}
	for _, key := range []string{`"FrontLibrary"`, `"front_library"`} {
		if bytes.Contains(lb.Bytes(), []byte(key)) {
			t.Fatalf("re-saved model still writes the legacy key %s", key)
		}
	}
}
