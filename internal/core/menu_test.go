package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/apps/pso"
	"opprox/internal/obs"
	"opprox/internal/qos"
	"opprox/internal/trace"
)

// buildPhaseMenu is the scalar reference for buildPhaseFront: it
// enumerates the phase's configuration space through predictConfig one
// configuration at a time, then applies the same stable degradation sort
// and strictly-increasing-speedup filter. It is the reference the tests
// below pin the batched path to, byte for byte.
func (t *Trained) buildPhaseMenu(pm *PhaseModel, paramVec []float64) phaseMenu {
	type entry struct {
		cfg approx.Config
		spd float64
		deg float64
	}
	var all []entry
	scanned := int64(0)
	approx.EnumerateConfigs(t.Blocks, func(cfg approx.Config) bool {
		if cfg.IsAccurate() {
			return true
		}
		scanned++
		spd, _ := pm.predictConfig(t, paramVec, cfg, false)
		_, deg := pm.predictConfig(t, paramVec, cfg, t.Opts.UseConfidence)
		all = append(all, entry{cfg: cfg.Clone(), spd: spd, deg: deg})
		return true
	})
	obs.Add("core.optimize.configs_scanned", scanned)
	sort.SliceStable(all, func(a, b int) bool { return all[a].deg < all[b].deg })
	m := phaseMenu{accurate: make(approx.Config, len(t.Blocks))}
	bestSpd := 1.0
	for _, e := range all {
		if e.spd > bestSpd {
			m.ladder = append(m.ladder, phaseChoice{cfg: e.cfg, spd: e.spd, deg: e.deg})
			bestSpd = e.spd
		}
	}
	return m
}

// optimizeOracle is Optimize with every phase menu built by the scalar
// buildPhaseMenu instead of the batched buildPhaseFront.
func (t *Trained) optimizeOracle(p apps.Params, budget float64) (approx.Schedule, Prediction, error) {
	pv := p.Vector(t.Specs)
	cm, err := t.classFor(pv)
	if err != nil {
		return approx.Schedule{}, Prediction{}, err
	}
	menus := make([]phaseMenu, t.Phases)
	for ph, pm := range cm.Phase {
		menus[ph] = t.buildPhaseMenu(pm, pv)
	}
	sched, pred := t.plan(cm, menus, budget)
	return sched, pred, nil
}

// encodePlan encodes one Optimize outcome. encoding/json writes floats
// in their shortest round-tripping form, so equal bytes mean bitwise
// equal plans.
func encodePlan(sched approx.Schedule, pred Prediction) ([]byte, error) {
	return json.Marshal(struct {
		Schedule approx.Schedule
		Pred     Prediction
	}{sched, pred})
}

func planBytes(t *testing.T, sched approx.Schedule, pred Prediction) []byte {
	t.Helper()
	b, err := encodePlan(sched, pred)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// randomParams draws n parameter sets uniformly inside each spec's value
// range. The specs list only a few training values, so the draws are
// inputs the models never saw.
func randomParams(specs []apps.ParamSpec, n int, rng *rand.Rand) []apps.Params {
	out := make([]apps.Params, n)
	for i := range out {
		p := apps.Params{}
		for _, sp := range specs {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range sp.Values {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			p[sp.Name] = lo + rng.Float64()*(hi-lo)
		}
		out[i] = p
	}
	return out
}

// wideApp has three blocks at eight levels: 511 non-accurate
// configurations, so buildPhaseFront predicts its space in more than
// one chunk.
type wideApp struct{}

func (wideApp) Name() string { return "wide" }

func (wideApp) Blocks() []approx.Block {
	return []approx.Block{
		{Name: "alpha", Technique: approx.Perforation, MaxLevel: 7},
		{Name: "beta", Technique: approx.Memoization, MaxLevel: 7},
		{Name: "gamma", Technique: approx.Perforation, MaxLevel: 7},
	}
}

func (wideApp) Params() []apps.ParamSpec { return toyApp{}.Params() }

func (a wideApp) Run(p apps.Params, sched approx.Schedule, baselineIters int) (apps.Result, error) {
	if err := sched.Validate(a.Blocks()); err != nil {
		return apps.Result{}, err
	}
	size := p.Vector(a.Params())[0]
	var rec trace.Recorder
	damage := 0.0
	for iter := 0; iter < toyIters; iter++ {
		rec.BeginIteration()
		lv := sched.LevelsAt(approx.PhaseOf(iter, baselineIters, sched.Phases))
		rec.Call("alpha", uint64((16-2*lv[0])*int(size)))
		rec.Call("beta", uint64((12-lv[1])*int(size)))
		rec.Call("gamma", uint64((10-lv[2])*int(size)))
		rec.Overhead(uint64(10 * size))
		damage += toyPhaseWeight(iter) * (0.5*float64(lv[0]) + 0.8*float64(lv[1]) + 0.3*float64(lv[2]))
	}
	return apps.Result{Output: []float64{100 + damage, 50}, Work: rec.TotalWork(), OuterIters: rec.Iterations(), CtxSig: "alpha>beta>gamma"}, nil
}

func (wideApp) QoS(exact, approximate []float64) (float64, error) {
	return qos.Distortion(exact, approximate)
}

// oracleCase is one trained model the single optimizer path is checked
// on, with the app it was trained on.
type oracleCase struct {
	name string
	app  apps.App
	tr   *Trained
}

// oracleCases trains the toy app, the two-class control-flow app, and
// without -short the bench app (whose space has dominated
// configurations), the wide app (a space of several predict chunks) and
// pso at reduced sampling. On that pso model the
// removed dominance-pruned plan library served plans that differ from
// these at some of the inputs TestFrontPlansMatchMenuPlans draws.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	_, toy := trainToy(t)
	two, err := Train(apps.NewRunner(twoPathApp{}), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases := []oracleCase{{"toy", toyApp{}, toy}, {"two-class", twoPathApp{}, two}}
	if testing.Short() {
		return cases
	}
	opts := DefaultOptions()
	opts.Seed = 1
	opts.Phases = 4
	opts.JointSamplesPerPhase = 12
	opts.MaxParamCombos = 6
	opts.Folds = 5
	psoModel, err := Train(apps.NewRunner(pso.New()), opts)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Train(apps.NewRunner(wideApp{}), benchOptions())
	if err != nil {
		t.Fatal(err)
	}
	return append(cases,
		oracleCase{"bench", benchApp{}, trainBench(t)},
		oracleCase{"wide", wideApp{}, wide},
		oracleCase{"pso", pso.New(), psoModel})
}

// TestFrontPlansMatchMenuPlans is the exactness property of the single
// optimizer path: at random in-domain parameters the models never saw
// and random budgets, Optimize returns bytes identical to the oracle
// Optimize driven by the scalar buildPhaseMenu.
func TestFrontPlansMatchMenuPlans(t *testing.T) {
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			params := append(randomParams(c.app.Params(), 50, rng), apps.DefaultParams(c.app))
			for _, p := range params {
				budgets := []float64{0, 60, 2 + 28*rng.Float64(), 2 + 28*rng.Float64(), 2 + 28*rng.Float64()}
				for _, b := range budgets {
					sched, pred, err := c.tr.Optimize(p, b)
					if err != nil {
						t.Fatal(err)
					}
					osched, opred, err := c.tr.optimizeOracle(p, b)
					if err != nil {
						t.Fatal(err)
					}
					got, want := planBytes(t, sched, pred), planBytes(t, osched, opred)
					if !bytes.Equal(got, want) {
						t.Fatalf("params %v budget %g:\n got %s\nwant %s", p, b, got, want)
					}
				}
			}
		})
	}
}

// TestFrontMenusMatchFullMenus pins the per-phase claim behind the plan
// equality: for every class and phase, at parameters the models never
// saw, the batched ladder equals the scalar ladder.
func TestFrontMenusMatchFullMenus(t *testing.T) {
	for _, c := range oracleCases(t) {
		rng := rand.New(rand.NewSource(17))
		for _, p := range randomParams(c.app.Params(), 10, rng) {
			pv := p.Vector(c.tr.Specs)
			for _, sig := range c.tr.classSigs() {
				for ph, pm := range c.tr.Classes[sig].Phase {
					front, err := c.tr.buildPhaseFront(pm, pv)
					if err != nil {
						t.Fatal(err)
					}
					full := c.tr.buildPhaseMenu(pm, pv)
					if !reflect.DeepEqual(front, full) {
						t.Fatalf("%s class %q phase %d pv %v: front %+v != scalar %+v",
							c.name, sig, ph, pv, front.ladder, full.ladder)
					}
				}
			}
		}
	}
}

// probeVecs returns the training parameter vectors plus n random
// in-domain ones.
func probeVecs(tr *Trained, n int) [][]float64 {
	var vecs [][]float64
	for _, r := range tr.Records {
		vecs = append(vecs, r.ParamVec)
	}
	for _, p := range randomParams(tr.Specs, n, rand.New(rand.NewSource(19))) {
		vecs = append(vecs, p.Vector(tr.Specs))
	}
	return vecs
}

// checkBatchMatchesScalar asserts predictConfigsBatch returns exactly
// (==, not approximately) what the scalar predictConfig path returns for
// every configuration, class, phase and probed parameter vector.
func checkBatchMatchesScalar(t *testing.T, tr *Trained) {
	t.Helper()
	space := tr.configSpace()
	spd := make([]float64, len(space))
	deg := make([]float64, len(space))
	for _, sig := range tr.classSigs() {
		cm := tr.Classes[sig]
		for _, pv := range probeVecs(tr, 8) {
			for ph, pm := range cm.Phase {
				if err := pm.predictConfigsBatch(tr, pv, space, spd, deg); err != nil {
					t.Fatal(err)
				}
				for j, cfg := range space {
					sWant, _ := pm.predictConfig(tr, pv, cfg, false)
					_, dWant := pm.predictConfig(tr, pv, cfg, tr.Opts.UseConfidence)
					if spd[j] != sWant || deg[j] != dWant {
						t.Fatalf("class %q phase %d pv %v cfg %v: batch (%.17g, %.17g) != scalar (%.17g, %.17g)",
							sig, ph, pv, cfg, spd[j], deg[j], sWant, dWant)
					}
				}
			}
		}
	}
}

func TestPredictConfigsBatchMatchesScalar(t *testing.T) {
	_, tr := trainToy(t)
	checkBatchMatchesScalar(t, tr)
}

// TestOptimizeBudgetMonotoneFront runs the budget monotonicity property
// on the wide app, whose space spans several predict chunks, at a
// training input and at one the models never saw: measured degradation
// stays inside the budget, and neither predicted nor measured speedup
// falls as the budget grows.
func TestOptimizeBudgetMonotoneFront(t *testing.T) {
	runner := apps.NewRunner(wideApp{})
	tr, err := Train(runner, benchOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []apps.Params{{"size": 10}, {"size": 13.7}} {
		prevPred, prevMeas := 0.0, 0.0
		for _, budget := range []float64{0, 2, 5, 10, 25, 60} {
			sched, pred, err := tr.Optimize(p, budget)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := runner.Evaluate(p, sched)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Degradation > budget {
				t.Fatalf("params %v budget %g violated: measured %.2f", p, budget, ev.Degradation)
			}
			if pred.Speedup+1e-12 < prevPred || ev.Speedup+1e-9 < prevMeas {
				t.Fatalf("params %v budget %g: speedup not monotone: predicted %.4f after %.4f, measured %.4f after %.4f",
					p, budget, pred.Speedup, prevPred, ev.Speedup, prevMeas)
			}
			prevPred, prevMeas = pred.Speedup, ev.Speedup
		}
	}
}

// TestOptimizeConfigsScanned pins the meaning of the counters the
// benchmark trace reads: one Optimize is one core.optimize.runs and
// scans phases × (space − 1) configurations, as the scalar path did.
func TestOptimizeConfigsScanned(t *testing.T) {
	_, tr := trainToy(t)
	p := apps.DefaultParams(toyApp{})
	scanned := obs.Default.Counter("core.optimize.configs_scanned")
	runs := obs.Default.Counter("core.optimize.runs")
	want := int64(tr.Phases * (approx.NumConfigs(tr.Blocks) - 1))

	s0, r0 := scanned.Value(), runs.Value()
	if _, _, err := tr.Optimize(p, 10); err != nil {
		t.Fatal(err)
	}
	if got := scanned.Value() - s0; got != want {
		t.Fatalf("Optimize scanned %d configs, want %d", got, want)
	}
	if got := runs.Value() - r0; got != 1 {
		t.Fatalf("Optimize counted %d runs, want 1", got)
	}
	s0 = scanned.Value()
	if _, _, err := tr.optimizeOracle(p, 10); err != nil {
		t.Fatal(err)
	}
	if got := scanned.Value() - s0; got != want {
		t.Fatalf("scalar path scanned %d configs, want %d", got, want)
	}
}

// TestExpandFeaturesTraining turns on the space-expanded feature set and
// checks training still converges, at least one fitted model actually
// uses the widened basis, the batch path stays bit-exact, and the
// expansion survives a save/load round trip.
func TestExpandFeaturesTraining(t *testing.T) {
	opts := fastOptions()
	opts.ExpandFeatures = true
	tr, err := Train(apps.NewRunner(toyApp{}), opts)
	if err != nil {
		t.Fatal(err)
	}
	expanded := false
	for _, sig := range tr.classSigs() {
		for _, pm := range tr.Classes[sig].Phase {
			for _, fm := range []*filteredModel{pm.globalSpeedup, pm.globalDeg, pm.iter} {
				if anyExpanded(fm) {
					expanded = true
				}
			}
			for b := range pm.localSpeedup {
				if anyExpanded(pm.localSpeedup[b]) || anyExpanded(pm.localDeg[b]) {
					expanded = true
				}
			}
		}
	}
	if !expanded {
		t.Fatal("ExpandFeatures trained no model on the widened basis")
	}
	sR2, dR2 := tr.ModelQuality()
	if sR2 < 0.8 || dR2 < 0.8 {
		t.Fatalf("expanded toy models degraded: speedup R²=%.3f deg R²=%.3f", sR2, dR2)
	}
	checkBatchMatchesScalar(t, tr)

	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrained(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []float64{10, 15.5, 20} {
		p := apps.Params{"size": size}
		for _, b := range []float64{0, 2.5, 10, 60} {
			s1, p1, err := tr.Optimize(p, b)
			if err != nil {
				t.Fatal(err)
			}
			s2, p2, err := loaded.Optimize(p, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(planBytes(t, s1, p1), planBytes(t, s2, p2)) {
				t.Fatalf("expanded-model plans diverge across a save/load round trip at %v budget %g", p, b)
			}
		}
	}
}

// anyExpanded reports whether the model or any split child fits on the
// space-expanded basis.
func anyExpanded(fm *filteredModel) bool {
	if fm == nil {
		return false
	}
	if fm.expandN > 0 {
		return true
	}
	return anyExpanded(fm.lo) || anyExpanded(fm.hi)
}

// fuzzModel trains the toy model once per fuzz process.
var fuzzModel struct {
	once sync.Once
	tr   *Trained
	err  error
}

// FuzzFrontQueryMatchesLadder asserts that, at any parameter value and
// any budget, every phase's batched ladder answers the budget query
// exactly like the scalar ladder.
func FuzzFrontQueryMatchesLadder(f *testing.F) {
	seeds := []struct{ size, budget float64 }{
		{10, 0}, {20, 1e-9}, {13.7, 0.5}, {10, 1}, {17.25, 3},
		{20, 7.5}, {11.1, 25}, {15, 1e6}, {19.9, -1}, {10, math.Inf(1)},
	}
	for _, s := range seeds {
		f.Add(s.size, s.budget)
	}
	f.Fuzz(func(t *testing.T, size, budget float64) {
		fuzzModel.once.Do(func() {
			fuzzModel.tr, fuzzModel.err = Train(apps.NewRunner(toyApp{}), fastOptions())
		})
		if fuzzModel.err != nil {
			t.Fatal(fuzzModel.err)
		}
		tr := fuzzModel.tr
		pv := apps.Params{"size": size}.Vector(tr.Specs)
		cm, err := tr.classFor(pv)
		if err != nil {
			t.Fatal(err)
		}
		for ph, pm := range cm.Phase {
			front, err := tr.buildPhaseFront(pm, pv)
			if err != nil {
				t.Fatal(err)
			}
			got := front.query(budget)
			want := tr.buildPhaseMenu(pm, pv).query(budget)
			if math.Float64bits(got.spd) != math.Float64bits(want.spd) ||
				math.Float64bits(got.deg) != math.Float64bits(want.deg) ||
				!reflect.DeepEqual(got.cfg, want.cfg) {
				t.Fatalf("size %g phase %d budget %g: front %+v != ladder %+v", size, ph, budget, got, want)
			}
		}
	})
}
