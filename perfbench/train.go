package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/apps/comd"
	"opprox/internal/apps/lulesh"
	"opprox/internal/apps/pso"
	"opprox/internal/apps/tracker"
	"opprox/internal/apps/vidpipe"
	"opprox/internal/core"
	"opprox/internal/feedback"
	"opprox/internal/launch"
	"opprox/internal/retrain"
)

// modelSeed is the training seed of the served model set. It is fixed,
// not drawn from --seed: the model set is the product under test, and a
// per-seed model set would turn the work-saved figure into a measure of
// seed luck. --seed drives everything the product is fed (traffic,
// request params and budgets, telemetry noise).
const modelSeed = 1

// appOrder is the paper's application order; model files are <app>.json.
var appOrder = []string{"lulesh", "comd", "vidpipe", "tracker", "pso"}

func newApp(name string) apps.App {
	switch name {
	case "lulesh":
		return lulesh.New()
	case "comd":
		return comd.New()
	case "vidpipe":
		return vidpipe.New()
	case "tracker":
		return tracker.New()
	case "pso":
		return pso.New()
	}
	panic("perfbench: unknown app " + name)
}

// quickOptions are the reduced-sampling training options of
// opprox-experiments -quick, at 4 phases (the Fig. 14 setting).
func quickOptions() core.Options {
	o := core.DefaultOptions()
	o.Seed = modelSeed
	o.Phases = 4
	o.JointSamplesPerPhase = 12
	o.MaxParamCombos = 6
	o.Folds = 5
	return o
}

// budgetsFor returns the Fig. 14 budgets: 5/10/20% degradation, and for
// vidpipe PSNR 35/30/20 dB expressed as degradation below the PSNR cap.
func budgetsFor(app string) []float64 {
	if app == "vidpipe" {
		return []float64{vidpipe.PSNRCap - 35, vidpipe.PSNRCap - 30, vidpipe.PSNRCap - 20}
	}
	return []float64{5, 10, 20}
}

// modelSet is the trained product: one model per app, their serialized
// bytes, and the runners they were trained with.
type modelSet struct {
	trained map[string]*core.Trained
	raw     map[string][]byte
	runners map[string]*apps.Runner
}

// trainAll trains every app with the quick options. wrap, when non-nil,
// wraps each app before it reaches its runner (the traced run times
// App.Run through it).
func trainAll(wrap func(apps.App) apps.App) (*modelSet, error) {
	ms := &modelSet{trained: map[string]*core.Trained{}, raw: map[string][]byte{}, runners: map[string]*apps.Runner{}}
	for _, name := range appOrder {
		app := newApp(name)
		if wrap != nil {
			app = wrap(app)
		}
		runner := apps.NewRunner(app)
		tr, err := core.Train(runner, quickOptions())
		if err != nil {
			return nil, fmt.Errorf("train %s: %w", name, err)
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			return nil, fmt.Errorf("save %s: %w", name, err)
		}
		ms.trained[name], ms.raw[name], ms.runners[name] = tr, buf.Bytes(), runner
	}
	return ms, nil
}

// writeModels stores every model as <dir>/<app>.json for the server.
func (ms *modelSet) writeModels(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range appOrder {
		if err := os.WriteFile(filepath.Join(dir, name+".json"), ms.raw[name], 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Quality is the Fig. 14 result of the model set: measured work saved
// per (app, budget) cell at default params.
type Quality struct {
	Cells      int
	Violations int // cells whose measured degradation exceeds the budget
	// WorkSavedPct is the mean measured work saved over the cells; a cell
	// over budget counts 0, since its plan broke the promise it was
	// served under.
	WorkSavedPct float64
	Detail       []string
	// EvalTime is the time spent running the plans (Runner.Evaluate).
	EvalTime time.Duration
}

// measureQuality optimizes every Fig. 14 cell and runs the plan.
func (ms *modelSet) measureQuality() (Quality, error) {
	var q Quality
	sum := 0.0
	for _, name := range appOrder {
		runner := ms.runners[name]
		p := apps.DefaultParams(runner.App)
		for _, b := range budgetsFor(name) {
			sched, _, err := ms.trained[name].Optimize(p, b)
			if err != nil {
				return q, fmt.Errorf("optimize %s@%g: %w", name, b, err)
			}
			t0 := time.Now()
			ev, err := runner.Evaluate(p, sched)
			q.EvalTime += time.Since(t0)
			if err != nil {
				return q, fmt.Errorf("evaluate %s@%g: %w", name, b, err)
			}
			q.Cells++
			saved, ok := scoreCell(core.WorkSaved(ev.Speedup), ev.Degradation, b)
			if !ok {
				q.Violations++
				q.Detail = append(q.Detail, fmt.Sprintf("%s budget %g: measured degradation %.2f", name, b, ev.Degradation))
			}
			sum += saved
		}
	}
	q.WorkSavedPct = sum / float64(q.Cells)
	return q, nil
}

// scoreCell returns a Fig. 14 cell's work saved and whether its measured
// degradation stayed within the budget; a cell over budget saves nothing.
func scoreCell(saved, degradation, budget float64) (float64, bool) {
	if degradation > budget {
		return 0, false
	}
	return saved, true
}

// retrainModel is the model the retraining step runs on. vidpipe's
// served predictions stay inside the invertible range of the natural
// degradation scale, so synthetic telemetry built from them round-trips
// (pso's do not).
const retrainModel = "vidpipe"

// telemetryReports is the length of the synthetic telemetry stream, and
// telemetryShift the speedup shift (log scale) applied to its second
// half so the re-detector finds a changepoint and a refit can win.
const (
	telemetryReports = 160
	telemetryShift   = 0.5
)

// writeTelemetry writes the seeded synthetic telemetry log retraining
// replays: reports on the model's own served schedule at budget 10 whose
// realized values equal its predictions times seeded noise, shifted from
// the halfway point on.
func writeTelemetry(path string, tr *core.Trained, seed int64) error {
	app := newApp(retrainModel)
	params := apps.DefaultParams(app)
	plan, err := launch.DispatchTrained(&launch.JobConfig{App: retrainModel, Budget: 10, Params: params, ModelPath: retrainModel + ".json"}, tr)
	if err != nil {
		return err
	}
	l, err := feedback.OpenLog(path, false)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < telemetryReports; i++ {
		for ph, cfg := range plan.Schedule.Levels {
			diag, err := tr.DiagnosePhase(params, ph, approx.Config(cfg))
			if err != nil {
				l.Close()
				return err
			}
			s := diag.SpeedupRaw + 0.01*rng.NormFloat64()
			if i >= telemetryReports/2 {
				s += telemetryShift
			}
			d := diag.DegRaw + 0.01*rng.NormFloat64()
			err = l.Append(feedback.Entry{
				DispatchID:  fmt.Sprintf("d%05d", i),
				Model:       retrainModel + ".json",
				Version:     "live",
				App:         retrainModel,
				Budget:      10,
				Params:      params,
				Levels:      append([]int(nil), cfg...),
				Phase:       ph,
				Speedup:     core.SpeedupFromScale(s),
				Degradation: math.Max(0, core.DegradationFromScale(d)),
			})
			if err != nil {
				l.Close()
				return err
			}
		}
	}
	return l.Close()
}

// RetrainTimes are the durations of one Extract → Retrain pass, plus a
// replayed Redetect on the extracted rows (Retrain runs its own
// re-detection inside; the replay isolates its cost).
type RetrainTimes struct {
	Extract, Redetect, Fit time.Duration
}

// runRetrain runs the retraining pipeline once on the telemetry log.
// ErrNoImprovement is a valid outcome (the run still fits and judges
// every candidate); any other error fails the operation.
func runRetrain(logPath string, liveRaw []byte, live *core.Trained, replayRedetect bool) (RetrainTimes, error) {
	var rt RetrainTimes
	t0 := time.Now()
	m, err := retrain.Extract(logPath, retrain.ExtractOptions{Model: retrainModel + ".json"})
	rt.Extract = time.Since(t0)
	if err != nil {
		return rt, err
	}
	if replayRedetect {
		t1 := time.Now()
		if _, err := retrain.Redetect(live, m.Rows, retrain.DefaultRedetectThreshold, retrain.DefaultMinSamples/2); err != nil {
			return rt, err
		}
		rt.Redetect = time.Since(t1)
	}
	t2 := time.Now()
	_, err = retrain.Retrain(liveRaw, m, retrain.Options{})
	rt.Fit = time.Since(t2)
	if err != nil && !errors.Is(err, retrain.ErrNoImprovement) {
		return rt, err
	}
	return rt, nil
}
