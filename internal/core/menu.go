package core

import (
	"fmt"
	"sort"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/ml/arena"
	"opprox/internal/ml/poly"
	"opprox/internal/obs"
)

// This file builds the per-phase menus Optimize searches (DESIGN.md §14):
// each phase's whole non-accurate configuration space is ranked under
// the models in batched predict passes, then collapsed into an upgrade
// ladder — the phase's Pareto front of (degradation, speedup) at the
// requested parameters.

// phaseChoice is one rung of a phase's upgrade ladder: the best predicted
// configuration affordable at degradation deg.
type phaseChoice struct {
	cfg approx.Config
	spd float64
	deg float64
}

// phaseMenu is a phase's configuration space collapsed into an upgrade
// ladder: entries have strictly increasing degradation AND strictly
// increasing speedup, so "the best configuration whose conservative
// degradation fits budget b" is the last entry with deg <= b.
type phaseMenu struct {
	ladder []phaseChoice
	// accurate is the all-zero configuration, the ladder's implicit floor.
	accurate approx.Config
}

// query returns the best configuration affordable at the given budget; the
// accurate configuration (speedup 1, degradation 0) is the floor.
func (m phaseMenu) query(budget float64) phaseChoice {
	lo, hi := 0, len(m.ladder) // first ladder index with deg > budget
	for lo < hi {
		mid := (lo + hi) / 2
		if m.ladder[mid].deg <= budget {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return phaseChoice{cfg: m.accurate, spd: 1, deg: 0}
	}
	return m.ladder[lo-1]
}

// configSpace returns the non-accurate configuration space in
// enumeration order. It is built once per model on first use and is
// read-only afterwards, so concurrent Optimize calls share it; ladder
// rungs alias its rows, which is why Optimize clones the rows it
// returns.
func (t *Trained) configSpace() []approx.Config {
	t.spaceOnce.Do(func() {
		t.space = make([]approx.Config, 0, approx.NumConfigs(t.Blocks)-1)
		approx.EnumerateConfigs(t.Blocks, func(cfg approx.Config) bool {
			if !cfg.IsAccurate() {
				t.space = append(t.space, cfg.Clone())
			}
			return true
		})
	})
	return t.space
}

// predictChunk is the most configurations buildPhaseFront sends through
// one predictConfigsBatch call.
const predictChunk = 256

// buildPhaseFront ranks the phase's whole configuration space under the
// trained models in batched predict passes and collapses it into the
// upgrade ladder. Feasibility is judged conservatively — the upper
// confidence edge of the degradation must fit the budget (paper §3.6) —
// but the objective ranks on the model's expected speedup: the confidence
// band's half-width is a per-phase constant on the log scale, so the
// pessimistic lower edge would preserve the ranking among configurations
// while spuriously rejecting every modest speedup against the accurate
// default.
func (t *Trained) buildPhaseFront(pm *PhaseModel, paramVec []float64) (phaseMenu, error) {
	m := phaseMenu{accurate: make(approx.Config, len(t.Blocks))}
	space := t.configSpace()
	n := len(space)
	if n == 0 {
		return m, nil
	}
	slab := arena.NewSlab(2 * n)
	defer slab.Release()
	spd := slab.Floats(n)
	deg := slab.Floats(n)
	// Predict in chunks: each row's arithmetic is independent of the
	// batch it rides in, and a bounded batch bounds the scratch (design
	// matrix, feature slabs) every concurrent dispatch holds at once.
	for lo := 0; lo < n; lo += predictChunk {
		hi := min(lo+predictChunk, n)
		if err := pm.predictConfigsBatch(t, paramVec, space[lo:hi], spd[lo:hi], deg[lo:hi]); err != nil {
			return m, err
		}
	}
	obs.Add("core.optimize.configs_scanned", int64(n))
	orderp := arena.Ints(n)
	defer arena.PutInts(orderp)
	order := *orderp
	for i := range order {
		order[i] = i
	}
	// Sort by degradation; SliceStable keeps enumeration order among equal
	// degradations, so the ladder (and hence every optimization result) is
	// deterministic.
	sort.SliceStable(order, func(a, b int) bool { return deg[order[a]] < deg[order[b]] })
	bestSpd := 1.0 // the accurate configuration is always feasible
	for _, i := range order {
		if spd[i] > bestSpd {
			m.ladder = append(m.ladder, phaseChoice{cfg: space[i], spd: spd[i], deg: deg[i]})
			bestSpd = spd[i]
		}
	}
	return m, nil
}

// predictConfigsBatch is the menu predictor over a batch of
// configurations: it writes, per configuration, the expected speedup
// (no confidence band — buildPhaseFront ranks on the expectation) and
// the conservative degradation (upper confidence edge when
// Opts.UseConfidence). Every model family evaluation runs through
// predictRawBatch, whose per-row arithmetic is exactly the scalar
// path's, so the results are bit-for-bit those of predictConfig.
func (pm *PhaseModel) predictConfigsBatch(t *Trained, paramVec []float64, cfgs []approx.Config, spd, deg []float64) error {
	n := len(cfgs)
	if len(spd) != n || len(deg) != n {
		return fmt.Errorf("core: predictConfigsBatch outputs %d/%d for %d configs", len(spd), len(deg), n)
	}
	if n == 0 {
		return nil
	}
	np := len(paramVec)
	nb := len(t.Blocks)
	gw := nb // global feature width
	if t.Opts.UseIterFeature {
		gw++
	}
	slab := arena.NewSlab(n*(np+1) + 2*n*gw + n*(np+nb) + n)
	defer slab.Release()
	lxFlat := slab.Floats(n * (np + 1))
	sfFlat := slab.Floats(n * gw)
	dfFlat := slab.Floats(n * gw)
	iterFlat := slab.Floats(n * (np + nb))
	col := slab.Floats(n)

	rowsp := arena.Rows(n)
	defer arena.PutRows(rowsp)
	rows := *rowsp

	// Local models: one shared [params..., level] matrix, re-stamping the
	// level column per block.
	for i := range cfgs {
		row := lxFlat[i*(np+1) : (i+1)*(np+1)]
		copy(row, paramVec)
		rows[i] = row
	}
	for b := 0; b < nb; b++ {
		for i, cfg := range cfgs {
			rows[i][np] = float64(cfg[b])
		}
		if err := pm.localSpeedup[b].predictRawBatch(rows, col); err != nil {
			return err
		}
		for i := range cfgs {
			sfFlat[i*gw+b] = col[i]
		}
		if err := pm.localDeg[b].predictRawBatch(rows, col); err != nil {
			return err
		}
		for i := range cfgs {
			dfFlat[i*gw+b] = col[i]
		}
	}
	if t.Opts.UseIterFeature {
		for i, cfg := range cfgs {
			row := iterFlat[i*(np+nb) : (i+1)*(np+nb)]
			copy(row, paramVec)
			for b, l := range cfg {
				row[np+b] = float64(l)
			}
			rows[i] = row
		}
		if err := pm.iter.predictRawBatch(rows, col); err != nil {
			return err
		}
		for i := range cfgs {
			est := pm.iter.fromRaw(col[i])
			sfFlat[i*gw+nb] = est
			dfFlat[i*gw+nb] = est
		}
	}

	// Global models over the assembled feature rows, straight into the
	// output slices (they hold raw values until the final transform).
	for i := range cfgs {
		rows[i] = sfFlat[i*gw : (i+1)*gw]
	}
	if err := pm.globalSpeedup.predictRawBatch(rows, spd); err != nil {
		return err
	}
	for i := range cfgs {
		rows[i] = dfFlat[i*gw : (i+1)*gw]
	}
	if err := pm.globalDeg.predictRawBatch(rows, deg); err != nil {
		return err
	}
	for i := range cfgs {
		sRaw, dRaw := spd[i], deg[i]
		if t.calib != nil && pm.Phase < len(t.calib.spd) {
			sRaw += t.calib.spd[pm.Phase]
			dRaw += t.calib.deg[pm.Phase]
		}
		if t.Opts.UseConfidence {
			dRaw = pm.DegCI.Upper(dRaw)
		}
		spd[i] = clampF(pm.globalSpeedup.fromRaw(sRaw), 0.02, 50)
		deg[i] = clampF(pm.globalDeg.fromRaw(dRaw), 0, apps.MaxDegradation)
	}
	return nil
}

// predictRawBatch evaluates the model on every row of full into out
// (len(out) must equal len(full)), on the training scale with no band or
// clamp — the batched predictRawScratch. Split models partition the rows
// on the raw split feature and recurse; space-expanded models widen
// every row first; the leaf gathers the keep mask and runs one
// poly.Model.PredictBatch, which is bit-for-bit the scalar PredictScratch
// per row. Equivalence tests pin batch == scalar exactly.
func (fm *filteredModel) predictRawBatch(full [][]float64, out []float64) error {
	if len(out) != len(full) {
		return fmt.Errorf("core: predictRawBatch out length %d for %d rows", len(out), len(full))
	}
	if len(full) == 0 {
		return nil
	}
	if fm.lo != nil && fm.hi != nil {
		loRowsp, hiRowsp := arena.Rows(len(full)), arena.Rows(len(full))
		defer arena.PutRows(loRowsp)
		defer arena.PutRows(hiRowsp)
		loIdxp, hiIdxp := arena.Ints(len(full)), arena.Ints(len(full))
		defer arena.PutInts(loIdxp)
		defer arena.PutInts(hiIdxp)
		subp := arena.Floats(len(full))
		defer arena.PutFloats(subp)
		loRows, hiRows := (*loRowsp)[:0], (*hiRowsp)[:0]
		loIdx, hiIdx := (*loIdxp)[:0], (*hiIdxp)[:0]
		for i, x := range full {
			if x[fm.splitFeat] <= fm.splitVal {
				loRows = append(loRows, x)
				loIdx = append(loIdx, i)
			} else {
				hiRows = append(hiRows, x)
				hiIdx = append(hiIdx, i)
			}
		}
		sub := *subp
		if err := fm.lo.predictRawBatch(loRows, sub[:len(loRows)]); err != nil {
			return err
		}
		for k, i := range loIdx {
			out[i] = sub[k]
		}
		if err := fm.hi.predictRawBatch(hiRows, sub[:len(hiRows)]); err != nil {
			return err
		}
		for k, i := range hiIdx {
			out[i] = sub[k]
		}
		return nil
	}
	rows := full
	if fm.expandN > 0 {
		se := poly.SpaceExpansion{NRaw: fm.expandN}
		nd := se.Dim()
		slab := arena.NewSlab(len(full) * nd)
		defer slab.Release()
		viewsp := arena.Rows(len(full))
		defer arena.PutRows(viewsp)
		views := *viewsp
		for i, x := range full {
			buf := slab.Floats(nd)
			views[i] = se.ExpandInto(buf[:0], x)
		}
		rows = views
	}
	if len(fm.keep) != len(rows[0]) {
		gslab := arena.NewSlab(len(full) * len(fm.keep))
		defer gslab.Release()
		gatherp := arena.Rows(len(full))
		defer arena.PutRows(gatherp)
		gather := *gatherp
		for i, x := range rows {
			sel := gslab.Floats(len(fm.keep))
			for k, j := range fm.keep {
				sel[k] = x[j]
			}
			gather[i] = sel
		}
		rows = gather
	}
	return fm.model.PredictBatch(out, rows)
}
