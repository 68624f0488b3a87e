package poly

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"opprox/internal/ml/arena"
	"opprox/internal/ml/linalg"
)

// Model is a fitted polynomial regression model.
type Model struct {
	Expansion *Expansion
	Coeffs    []float64
	// Standardization applied to raw inputs before expansion. Fitting on
	// standardized features keeps high-degree expansions well conditioned.
	Mean, Scale []float64
	// TrainR2 is the coefficient of determination on the training set.
	TrainR2 float64
}

// ErrTooFewSamples reports that there are fewer samples than basis terms.
var ErrTooFewSamples = errors.New("poly: fewer samples than basis terms")

// Fit fits a polynomial of the given degree to (xs, ys) by least squares,
// falling back to a lightly regularized ridge solve when the expanded
// design matrix is rank deficient. Per-feature exponents are automatically
// capped at (#distinct values - 1) observed in xs — higher powers are
// collinear at the sample points and oscillate freely between them.
func Fit(xs [][]float64, ys []float64, degree int) (*Model, error) {
	return FitRidge(xs, ys, degree, 0)
}

// DistinctCaps returns, per feature column, the exponent cap
// (#distinct values - 1), with -1 (unlimited) for columns that look
// continuous (more than maxDiscrete distinct values). The distinct scan is
// a linear probe over a small stack of seen values — the set is bounded by
// maxDiscrete+1 entries, where a map would cost an allocation per column
// per fit (and cross-validation refits per fold).
func DistinctCaps(xs [][]float64, maxDiscrete int) []int {
	if len(xs) == 0 {
		return nil
	}
	nf := len(xs[0])
	caps := make([]int, nf)
	seenBuf := arena.Floats(maxDiscrete + 1)
	defer arena.PutFloats(seenBuf)
	for j := 0; j < nf; j++ {
		seen := (*seenBuf)[:0]
		for _, x := range xs {
			if j >= len(x) {
				continue // ragged row: Fit reports the error later
			}
			v := x[j]
			dup := false
			for _, s := range seen {
				if s == v {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen = append(seen, v)
			if len(seen) > maxDiscrete {
				break
			}
		}
		switch {
		case len(seen) == 0, len(seen) > maxDiscrete:
			caps[j] = -1
		default:
			caps[j] = len(seen) - 1
		}
	}
	return caps
}

// designPool recycles design matrices across fits: cross-validation alone
// builds k of them per degree probed.
var designPool = sync.Pool{New: func() any { return new(linalg.Matrix) }}

// FitRidge is Fit with an explicit ridge penalty lambda (0 = OLS first,
// ridge fallback).
func FitRidge(xs [][]float64, ys []float64, degree int, lambda float64) (*Model, error) {
	if len(xs) == 0 {
		return nil, errors.New("poly: no training samples")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("poly: %d inputs but %d targets", len(xs), len(ys))
	}
	nf := len(xs[0])
	exp, err := NewExpansionCapped(nf, degree, DistinctCaps(xs, 12))
	if err != nil {
		return nil, err
	}
	nt := exp.NumTerms()
	if len(xs) < nt {
		return nil, fmt.Errorf("%w: %d samples for %d terms (degree %d, %d features)",
			ErrTooFewSamples, len(xs), nt, degree, nf)
	}
	mean, scale := standardization(xs)
	design := designPool.Get().(*linalg.Matrix)
	defer designPool.Put(design)
	design.EnsureShape(len(xs), nt)
	prog := exp.prog()
	bufp := arena.Floats(nf)
	defer arena.PutFloats(bufp)
	buf := *bufp
	for i, x := range xs {
		if len(x) != nf {
			return nil, fmt.Errorf("poly: sample %d has %d features, want %d", i, len(x), nf)
		}
		standardize(buf, x, mean, scale)
		prog.evalInto(design.Data[i*nt:(i+1)*nt], buf)
	}
	var coeffs []float64
	if lambda > 0 {
		coeffs, err = linalg.RidgeSolve(design, ys, lambda)
	} else {
		coeffs, err = linalg.LeastSquares(design, ys)
		if errors.Is(err, linalg.ErrSingular) {
			coeffs, err = linalg.RidgeSolve(design, ys, 1e-8)
		}
	}
	if err != nil {
		return nil, err
	}
	m := &Model{Expansion: exp, Coeffs: coeffs, Mean: mean, Scale: scale}
	// Training predictions fall out of the design matrix already in hand:
	// row i holds every term at sample i, so the prediction is the same
	// coefficient-weighted sum Predict would compute from scratch.
	predp := arena.Floats(len(xs))
	pred := *predp
	for i := range xs {
		row := design.Data[i*nt : (i+1)*nt]
		s := 0.0
		for t, c := range coeffs {
			s += c * row[t]
		}
		pred[i] = s
	}
	m.TrainR2 = R2(ys, pred)
	arena.PutFloats(predp)
	return m, nil
}

// Predict evaluates the model at x. The standardization buffer comes from
// the shared arena, so steady-state Predict performs zero allocations.
func (m *Model) Predict(x []float64) float64 {
	bufp := arena.Floats(len(x))
	s := m.PredictScratch(x, *bufp)
	arena.PutFloats(bufp)
	return s
}

// PredictScratch is Predict with a caller-provided standardization buffer
// (len(buf) >= len(x)): no allocations and no pool traffic at all. Tight
// prediction loops that already hold a scratch buffer use this to avoid
// nested arena round-trips.
func (m *Model) PredictScratch(x, buf []float64) float64 {
	buf = buf[:len(x)]
	standardize(buf, x, m.Mean, m.Scale)
	return m.Expansion.prog().dot(m.Coeffs, buf)
}

// PredictInto evaluates the model at every row of xs into dst, which must
// have length len(xs). One pooled standardization buffer is shared across
// the whole batch.
func (m *Model) PredictInto(dst []float64, xs [][]float64) {
	if len(dst) != len(xs) {
		panic(fmt.Sprintf("poly: PredictInto dst length %d for %d rows", len(dst), len(xs)))
	}
	prog := m.Expansion.prog()
	bufp := arena.Floats(m.Expansion.NFeatures)
	buf := *bufp
	for i, x := range xs {
		if len(x) > cap(buf) {
			arena.PutFloats(bufp)
			bufp = arena.Floats(len(x))
			buf = *bufp
		}
		b := buf[:len(x)]
		standardize(b, x, m.Mean, m.Scale)
		dst[i] = prog.dot(m.Coeffs, b)
	}
	arena.PutFloats(bufp)
}

// PredictBatch evaluates the model at every row of xs into dst (which
// must have length len(xs)) through one batched pass: every row is
// standardized into a shared row-major matrix, the whole matrix runs
// through the compiled expansion via TransformAll, and each prediction
// is the coefficient dot product over its design row, accumulated in
// term order. The arithmetic per row — standardize, termVal, ordered
// sum — is exactly PredictScratch's, so the batched predictions are
// bit-for-bit identical to the scalar path (equivalence tests pin
// this). The optimizer uses it to rank a phase's whole configuration
// space in one pass.
func (m *Model) PredictBatch(dst []float64, xs [][]float64) error {
	if len(dst) != len(xs) {
		return fmt.Errorf("poly: PredictBatch dst length %d for %d rows", len(dst), len(xs))
	}
	if len(xs) == 0 {
		return nil
	}
	nf := m.Expansion.NFeatures
	stdp := arena.Floats(len(xs) * nf)
	defer arena.PutFloats(stdp)
	std := *stdp
	viewsp := arena.Rows(len(xs))
	defer arena.PutRows(viewsp)
	views := *viewsp
	for i, x := range xs {
		if len(x) != nf {
			return fmt.Errorf("poly: PredictBatch row %d has %d features, model expects %d", i, len(x), nf)
		}
		row := std[i*nf : (i+1)*nf]
		standardize(row, x, m.Mean, m.Scale)
		views[i] = row
	}
	design := designPool.Get().(*linalg.Matrix)
	defer designPool.Put(design)
	if err := m.Expansion.TransformAll(design, views); err != nil {
		return err
	}
	nt := m.Expansion.NumTerms()
	for i := range xs {
		row := design.Data[i*nt : (i+1)*nt]
		s := 0.0
		for t, c := range m.Coeffs {
			s += c * row[t]
		}
		dst[i] = s
	}
	return nil
}

// PredictAll evaluates the model at every row of xs.
func (m *Model) PredictAll(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	m.PredictInto(out, xs)
	return out
}

// ResidualsInto writes y - prediction for every pair into dst, which must
// have length len(xs), reusing one pooled scratch buffer.
func (m *Model) ResidualsInto(dst []float64, xs [][]float64, ys []float64) {
	m.PredictInto(dst, xs)
	for i, y := range ys {
		dst[i] = y - dst[i]
	}
}

// Residuals returns y - prediction for every training pair supplied.
func (m *Model) Residuals(xs [][]float64, ys []float64) []float64 {
	res := make([]float64, len(xs))
	m.ResidualsInto(res, xs, ys)
	return res
}

func standardization(xs [][]float64) (mean, scale []float64) {
	nf := len(xs[0])
	mean = make([]float64, nf)
	scale = make([]float64, nf)
	for _, x := range xs {
		for j, v := range x {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(xs))
	}
	for _, x := range xs {
		for j, v := range x {
			d := v - mean[j]
			scale[j] += d * d
		}
	}
	for j := range scale {
		scale[j] = math.Sqrt(scale[j] / float64(len(xs)))
		if scale[j] < 1e-12 {
			scale[j] = 1 // constant feature: leave centered at zero
		}
	}
	return mean, scale
}

func standardize(dst, x, mean, scale []float64) {
	for j, v := range x {
		dst[j] = (v - mean[j]) / scale[j]
	}
}

// R2 returns the coefficient of determination of pred against truth.
// A perfect prediction scores 1; predicting the mean scores 0. When the
// truth is constant, R2 returns 1 if predictions match it and 0 otherwise.
func R2(truth, pred []float64) float64 {
	if len(truth) != len(pred) || len(truth) == 0 {
		return math.NaN()
	}
	mean := 0.0
	for _, v := range truth {
		mean += v
	}
	mean /= float64(len(truth))
	ssRes, ssTot := 0.0, 0.0
	for i, v := range truth {
		d := v - pred[i]
		ssRes += d * d
		m := v - mean
		ssTot += m * m
	}
	if ssTot < 1e-30 {
		if ssRes < 1e-12 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// CrossValidate runs k-fold cross validation at the given degree and
// returns the mean out-of-fold R². Folds are assigned by a deterministic
// shuffle of the provided rng. Folds are fitted concurrently (one worker
// per CPU); see CrossValidateParallel for the determinism contract.
func CrossValidate(xs [][]float64, ys []float64, degree, k int, rng *rand.Rand) (float64, error) {
	return CrossValidateParallel(xs, ys, degree, k, rng, 0)
}

// CrossValidateParallel is CrossValidate with an explicit worker count
// (<= 0 means one per CPU). The rng is consumed once, up front, for the
// fold permutation; fold fits draw no randomness, each fold's score lands
// in its own slot, and the reduction runs in fold-index order — so the
// result is byte-identical at every parallelism level, including serial.
func CrossValidateParallel(xs [][]float64, ys []float64, degree, k int, rng *rand.Rand, workers int) (float64, error) {
	if k < 2 {
		return 0, fmt.Errorf("poly: k-fold needs k >= 2, got %d", k)
	}
	n := len(xs)
	if n < k {
		return 0, fmt.Errorf("poly: %d samples for %d folds", n, k)
	}
	perm := rng.Perm(n)
	scores := make([]float64, k)
	errs := make([]error, k)
	runFolds(k, workers, func(fold int) {
		trXp, teXp := arena.Rows(n), arena.Rows(n)
		trYp, teYp := arena.Floats(n), arena.Floats(n)
		trX, teX := (*trXp)[:0], (*teXp)[:0]
		trY, teY := (*trYp)[:0], (*teYp)[:0]
		for i, idx := range perm {
			if i%k == fold {
				teX = append(teX, xs[idx])
				teY = append(teY, ys[idx])
			} else {
				trX = append(trX, xs[idx])
				trY = append(trY, ys[idx])
			}
		}
		m, err := Fit(trX, trY, degree)
		if err != nil {
			errs[fold] = err
		} else {
			predp := arena.Floats(len(teX))
			m.PredictInto(*predp, teX)
			scores[fold] = R2(teY, *predp)
			arena.PutFloats(predp)
		}
		arena.PutRows(trXp)
		arena.PutRows(teXp)
		arena.PutFloats(trYp)
		arena.PutFloats(teYp)
	})
	for fold := 0; fold < k; fold++ {
		if errs[fold] != nil {
			return 0, errs[fold]
		}
	}
	sum := 0.0
	for _, s := range scores {
		sum += s
	}
	return sum / float64(k), nil
}

// runFolds executes run(0..k-1) on a worker pool, in the PR 1 experiment
// engine's feeder pattern. Each fold writes only its own result slot;
// callers reduce in fold order after the pool drains.
func runFolds(k, workers int, run func(fold int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}
	if workers <= 1 {
		for fold := 0; fold < k; fold++ {
			run(fold)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fold := range next {
				run(fold)
			}
		}()
	}
	for fold := 0; fold < k; fold++ {
		next <- fold
	}
	close(next)
	wg.Wait()
}

// OutOfFoldResiduals returns one residual (truth - prediction) per sample,
// each computed by a model that did not train on that sample (k-fold).
// These are the honest residuals confidence intervals should be built from.
// Folds fit concurrently; each writes a disjoint slice of the result, so
// the output is identical to the serial computation.
func OutOfFoldResiduals(xs [][]float64, ys []float64, degree, k int, rng *rand.Rand) ([]float64, error) {
	if k < 2 {
		return nil, fmt.Errorf("poly: k-fold needs k >= 2, got %d", k)
	}
	n := len(xs)
	if n < k {
		return nil, fmt.Errorf("poly: %d samples for %d folds", n, k)
	}
	perm := rng.Perm(n)
	res := make([]float64, n)
	errs := make([]error, k)
	runFolds(k, 0, func(fold int) {
		trXp := arena.Rows(n)
		trYp := arena.Floats(n)
		teIdxp := arena.Ints(n)
		trX, trY, teIdx := (*trXp)[:0], (*trYp)[:0], (*teIdxp)[:0]
		for i, idx := range perm {
			if i%k == fold {
				teIdx = append(teIdx, idx)
			} else {
				trX = append(trX, xs[idx])
				trY = append(trY, ys[idx])
			}
		}
		m, err := Fit(trX, trY, degree)
		if err != nil {
			errs[fold] = err
		} else {
			for _, idx := range teIdx {
				res[idx] = ys[idx] - m.Predict(xs[idx])
			}
		}
		arena.PutRows(trXp)
		arena.PutFloats(trYp)
		arena.PutInts(teIdxp)
	})
	for fold := 0; fold < k; fold++ {
		if errs[fold] != nil {
			return nil, errs[fold]
		}
	}
	return res, nil
}

// AutoFitResult reports what the degree search selected.
type AutoFitResult struct {
	Model    *Model
	Degree   int
	CVScore  float64
	Achieved bool // true when CVScore >= the requested target
}

// AutoFit raises the polynomial degree from 1 to maxDegree until k-fold
// cross validation reaches targetR2 (paper §3.7), then refits on all data
// at the chosen degree. If no degree reaches the target, the degree with
// the best CV score is used and Achieved is false.
func AutoFit(xs [][]float64, ys []float64, targetR2 float64, maxDegree, folds int, rng *rand.Rand) (*AutoFitResult, error) {
	if maxDegree < 1 {
		return nil, fmt.Errorf("poly: maxDegree must be >= 1, got %d", maxDegree)
	}
	bestDeg, bestScore := 0, math.Inf(-1)
	caps := DistinctCaps(xs, 12)
	for deg := 1; deg <= maxDegree; deg++ {
		exp, err := NewExpansionCapped(len(xs[0]), deg, caps)
		if err != nil {
			return nil, err
		}
		// Need enough samples in the training folds for this basis.
		trainSize := len(xs) - len(xs)/folds
		if trainSize < exp.NumTerms() {
			break
		}
		score, err := CrossValidate(xs, ys, deg, folds, rng)
		if err != nil {
			if errors.Is(err, ErrTooFewSamples) {
				break
			}
			return nil, err
		}
		if score > bestScore {
			bestScore, bestDeg = score, deg
		}
		if score >= targetR2 {
			m, err := Fit(xs, ys, deg)
			if err != nil {
				return nil, err
			}
			return &AutoFitResult{Model: m, Degree: deg, CVScore: score, Achieved: true}, nil
		}
	}
	if bestDeg == 0 {
		return nil, fmt.Errorf("poly: not enough samples (%d) to fit even degree 1", len(xs))
	}
	m, err := Fit(xs, ys, bestDeg)
	if err != nil {
		return nil, err
	}
	return &AutoFitResult{Model: m, Degree: bestDeg, CVScore: bestScore, Achieved: false}, nil
}
