package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/core"
	"opprox/internal/feedback"
	"opprox/internal/launch"
	"opprox/internal/obs"
	"opprox/internal/serve"
)

// The traced run measures each layer from outside the program: spans
// around calls into the internal packages' public functions, deltas of
// the obs.Default counters, and replays of the run's own inputs through
// one layer's function at a time. Nothing inside the program is
// instrumented.

// Span is one timed interval. Spans are kept in memory and written as
// JSON lines when the run ends.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer collects spans.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	sp   []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) newID() int64 { return tr.next.Add(1) }

// record stores a finished span and returns its length.
func (tr *tracer) record(id, parent int64, name string, start, end time.Time) time.Duration {
	tr.mu.Lock()
	tr.sp = append(tr.sp, Span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))})
	tr.mu.Unlock()
	return end.Sub(start)
}

// span runs fn inside a new span.
func (tr *tracer) span(name string, parent int64, fn func(id int64) error) (time.Duration, error) {
	id := tr.newID()
	t0 := time.Now()
	err := fn(id)
	return tr.record(id, parent, name, t0, time.Now()), err
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.sp {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	tr.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// trainHooks observe the training stages in the traced run; a nil
// *trainHooks (the untraced run) observes nothing.
type trainHooks struct {
	tr       *tracer
	root     int64 // the training span, parent of every apps.run span
	runs     atomic.Int64
	runNs    atomic.Int64
	trainEnd obs.Snapshot
	quality  Quality
	retrain  []RetrainTimes
}

// timedApp times every Run of the wrapped app.
type timedApp struct {
	apps.App
	h *trainHooks
}

func (a timedApp) Run(p apps.Params, sched approx.Schedule, baselineIters int) (res apps.Result, err error) {
	d, _ := a.h.tr.span("apps.run", a.h.root, func(int64) error {
		res, err = a.App.Run(p, sched, baselineIters)
		return nil
	})
	a.h.runs.Add(1)
	a.h.runNs.Add(int64(d))
	return res, err
}

func (h *trainHooks) wrapApp() func(apps.App) apps.App {
	if h == nil {
		return nil
	}
	return func(a apps.App) apps.App { return timedApp{App: a, h: h} }
}

func (h *trainHooks) trained() {
	if h != nil {
		h.trainEnd = obs.Default.Snapshot()
	}
}

func (h *trainHooks) evaluated(q Quality) {
	if h != nil {
		h.quality = q
	}
}

func (h *trainHooks) retrained(rt RetrainTimes) {
	if h != nil {
		h.retrain = append(h.retrain, rt)
	}
}

// layers sets per-layer metrics.
type layers struct{ t *tally }

func (m layers) ms(name string, d time.Duration) { m.t.set(name, float64(d)/1e6, "ms") }
func (m layers) count(name string, v float64)    { m.t.set(name, v, "count") }
func (m layers) ratio(name string, v float64)    { m.t.set(name, v, "ratio") }

// pct sets name to the q-quantile of ds in units of scale, or to 0 when
// the sample does not support it (fewer than ten samples beyond it).
func (m layers) pct(name string, ds []time.Duration, q float64, scale time.Duration, unit string) {
	val := 0.0
	if v, ok := Percentile(ds, q); ok {
		val = float64(v) / float64(scale)
	}
	m.t.set(name, val, unit)
}

func (m layers) us(name string, ds []time.Duration, q float64) {
	m.pct(name, ds, q, time.Microsecond, "us")
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced is the traced run: training with timed apps and obs deltas;
// a base segment and feedback reports against a child opprox-serve,
// whose layers are read from /metricsz; the same base segment against
// serve.New in this process, once plain and once behind timing wrappers,
// for what only per-request spans give; and last the replays.
func runTraced(cfg config, t *tally) error {
	tr := newTracer()
	m := layers{t}
	hooks := &trainHooks{tr: tr, root: tr.newID()}

	t0 := time.Now()
	before := obs.Default.Snapshot()
	smp := startSampler()
	defer smp.Stop()
	trained, err := runTraining(cfg, t, hooks, smp)
	if err != nil {
		return err
	}
	ms := trained.models
	tr.record(hooks.root, 0, "train", t0, time.Now())
	train := delta{before, hooks.trainEnd}
	m.t.set("core.sample_s", train.seconds("core.sample.pool.duration"), "s")
	m.t.set("core.fit_s", train.seconds("core.fit.duration"), "s")
	m.count("core.fit.models", train.counter("core.fit.models"))
	m.count("apps.runs", float64(hooks.runs.Load()))
	m.ms("apps.run_ms.sum", time.Duration(hooks.runNs.Load()))
	hits := train.counters("apps.", ".golden.hit")
	lookups := hits + train.counters("apps.", ".golden.miss")
	m.ratio("apps.golden.hit_ratio", ratio(hits, lookups))
	m.count("apps.golden.lookups", lookups)
	m.ms("apps.evaluate_ms.sum", hooks.quality.EvalTime)
	m.count("quality.budget_violations", float64(hooks.quality.Violations))
	m.count("quality.cells", float64(hooks.quality.Cells))
	var ext, red, fit []time.Duration
	for _, rt := range hooks.retrain {
		ext, red, fit = append(ext, rt.Extract), append(red, rt.Redetect), append(fit, rt.Fit)
	}
	m.ms("retrain.extract_ms", medianDur(ext))
	m.ms("retrain.redetect_ms", medianDur(red))
	m.ms("retrain.fit_ms", medianDur(fit))

	st := newServingState(cfg.workload, cfg.seed, ms)
	models := filepath.Join(cfg.work, "models")
	if err := ms.writeModels(models); err != nil {
		return err
	}
	reports, err := childLayers(cfg, t, st, models)
	if err != nil {
		return err
	}
	if err := spanLayers(cfg, t, st, models, tr); err != nil {
		return err
	}
	if err := replayDispatch(st, ms, m); err != nil {
		return err
	}
	if err := replayFeedback(cfg, st, reports, m); err != nil {
		return err
	}
	replayObs(m)
	return tr.write(filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload.Name, cfg.seed)))
}

// childLayers runs a base segment, then feedback reports, against a
// child opprox-serve with default flags, and reads the layers' counters
// and handler timers from its /metricsz before and after each. It
// returns the reports it posted.
func childLayers(cfg config, t *tally, st *servingState, models string) ([][]byte, error) {
	m := layers{t}
	ps, err := startServer(cfg.serveBin, models, nil)
	if err != nil {
		return nil, err
	}
	defer ps.Stop()
	c := newClient(ps.URL, cfg.conns, st.check)
	defer c.Close()
	if err := st.warm(c, cfg.conns); err != nil {
		return nil, err
	}
	st.settle(cfg, t, c)
	seg := st.segment(cfg.seed*1000, st.wl.Rate, st.wl.baseDur(cfg.seconds, traceShare))
	start, err := fetchMetrics(ps.URL)
	if err != nil {
		return nil, err
	}
	s := st.timed(cfg, t, c, seg, "child")
	mid, err := fetchMetrics(ps.URL)
	if err != nil {
		return nil, err
	}
	late, _ := Percentile(s.Late, 0.99)
	m.ms("loadgen.late_ms.p99", late)
	m.t.set("loadgen.achieved_rps", s.Achieved, "1/s")
	m.count("loadgen.samples", float64(len(s.Latency)))
	m.ms("loadgen.mean_ms", Mean(s.Latency))
	p95, _ := Percentile(s.Latency, tailQ)
	m.ms("loadgen.p95_ms", p95)

	base := delta{start, mid}
	m.t.set("serve.dispatch.handler_us.mean", 1e6*base.mean("serve.http.dispatch"), "us")
	hit := base.counter("serve.plan.cache.hit")
	look := hit + base.counter("serve.plan.cache.miss")
	m.ratio("serve.plancache.hit_ratio", ratio(hit, look))
	m.count("serve.plancache.lookups", look)
	m.count("serve.plancache.evictions", base.counter("serve.plan.cache.evicted"))
	runs := base.counter("core.optimize.runs")
	m.ratio("core.optimize.configs_per_run", ratio(base.counter("core.optimize.configs_scanned"), runs))
	m.count("core.optimize.runs", runs)
	reqs := base.counter("serve.dispatch.requests")
	m.ratio("serve.ladder.full_share", ratio(reqs-base.counter("serve.ladder.degraded"), reqs))
	m.count("serve.dispatch.requests", reqs)
	m.count("serve.dispatch.queue_timeouts", base.counter("serve.dispatch.queue_timeout"))
	m.count("flight.batch.shed", base.counter("serve.batch.shed")+base.counter("serve.batch.shed_retry"))

	// The feedback handler: the reports a client would send for the most
	// recent served answers, posted one at a time.
	reports := reportBodies(st)
	var ferrs []error
	posted := 0
	for t0 := time.Now(); posted < len(reports) && (posted < 200 || time.Since(t0) < replayBudget); posted++ {
		if err := c.report(reports[posted]); err != nil {
			ferrs = append(ferrs, err)
		}
	}
	t.ops(posted, ferrs)
	end, err := fetchMetrics(ps.URL)
	if err != nil {
		return nil, err
	}
	fb, all := delta{mid, end}, delta{start, end}
	m.t.set("serve.feedback.handler_us.mean", 1e6*fb.mean("serve.http.feedback"), "us")
	m.count("feedback.unknown_dispatch", fb.counter("serve.feedback.unknown_dispatch"))
	m.count("lifecycle.shadow.created", all.counter("lifecycle.shadow.created"))
	m.count("retrain.runs", all.counter("retrain.runs"))
	return reports[:posted], nil
}

// spanLayers runs one base segment against serve.New in this process
// twice: plain, then behind a timing middleware and a timed model store
// with the client tagging each request. The second gives what only
// per-request spans can: handler percentiles, the time outside the
// handler, model reads, and the tracing overhead against the first.
func spanLayers(cfg config, t *tally, st *servingState, models string, tr *tracer) error {
	m := layers{t}
	seg := st.segment(cfg.seed*1000+1, st.wl.Rate, st.wl.baseDur(cfg.seconds, traceShare))
	var p50 [2]time.Duration
	for i, traced := range []*tracer{nil, tr} {
		ts, err := startInProcess(models, traced)
		if err != nil {
			return err
		}
		c := newClient(ts.URL, cfg.conns, st.check)
		c.tr = traced
		err = st.warm(c, cfg.conns)
		if err == nil {
			st.settle(cfg, t, c)
			if traced != nil {
				m.ms("serve.store.open_ms", medianDur(ts.store.reads()))
				ts.handler.reset()
				c.reset()
			}
			s := st.timed(cfg, t, c, seg, "in-process")
			p50[i], _ = Percentile(s.Latency, 0.5)
			if traced != nil {
				hd := ts.handler.durations()["/v1/dispatch"]
				m.us("serve.dispatch.handler_us.p50", hd, 0.5)
				m.us("serve.dispatch.handler_us.p99", hd, 0.99)
				m.us("http.transport_us.p50", ts.handler.transport(c.spans()), 0.5)
			}
		}
		c.Close()
		ts.stop()
		if err != nil {
			return err
		}
	}
	m.ms("trace.overhead_ms", p50[1]-p50[0])
	return nil
}

// inProcServer is serve.New in this process on a loopback listener,
// with serve.New's own defaults: it is compared only with itself, never
// with the child. When traced, its handler and store are timed.
type inProcServer struct {
	URL     string
	srv     *http.Server
	done    chan error
	handler *timedHandler
	store   *timedStore
}

func startInProcess(models string, tr *tracer) (*inProcServer, error) {
	ts := &inProcServer{}
	var store serve.Store = serve.FileStore{Root: models}
	if tr != nil {
		ts.store = &timedStore{FileStore: serve.FileStore{Root: models}}
		store = ts.store
	}
	var h http.Handler = serve.New(serve.Options{Store: store}).Handler()
	if tr != nil {
		ts.handler = &timedHandler{next: h, tr: tr}
		ts.handler.reset()
		h = ts.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ts.URL = "http://" + ln.Addr().String()
	ts.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	ts.done = make(chan error, 1)
	go func() { ts.done <- ts.srv.Serve(ln) }()
	if err := waitHealthy(ts.URL); err != nil {
		ts.stop()
		return nil, err
	}
	return ts, nil
}

func (ts *inProcServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ts.srv.Shutdown(ctx)
	<-ts.done
}

// seqHeader carries the client span's ID to the handler span, so the two
// spans of one request pair up.
const seqHeader = "X-Bench-Span"

// timedHandler is the timing middleware: one span per request.
type timedHandler struct {
	next http.Handler
	tr   *tracer
	mu   sync.Mutex
	d    map[string][]time.Duration
	byID map[int64]time.Duration // handler time by client span ID
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
	d, _ := h.tr.span("handler "+r.URL.Path, parent, func(int64) error {
		h.next.ServeHTTP(w, r)
		return nil
	})
	h.mu.Lock()
	h.d[r.URL.Path] = append(h.d[r.URL.Path], d)
	if parent != 0 {
		h.byID[parent] = d
	}
	h.mu.Unlock()
}

func (h *timedHandler) reset() {
	h.mu.Lock()
	h.d, h.byID = map[string][]time.Duration{}, map[int64]time.Duration{}
	h.mu.Unlock()
}

func (h *timedHandler) durations() map[string][]time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string][]time.Duration, len(h.d))
	for path, ds := range h.d {
		out[path] = append([]time.Duration(nil), ds...)
	}
	return out
}

// transport pairs each client dispatch with its handler span: the time
// the request spent outside the handler (client, loopback, HTTP framing).
func (h *timedHandler) transport(client []clientSpan) []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []time.Duration
	for _, cs := range client {
		if hd, ok := h.byID[cs.id]; ok && cs.path == "/v1/dispatch" {
			out = append(out, cs.d-hd)
		}
	}
	return out
}

// timedStore times each model read: open plus read to the end.
type timedStore struct {
	serve.FileStore
	mu sync.Mutex
	d  []time.Duration
}

func (s *timedStore) Open(name string) (io.ReadCloser, error) {
	t0 := time.Now()
	rc, err := s.FileStore.Open(name)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
	return io.NopCloser(bytes.NewReader(b)), nil
}

func (s *timedStore) reads() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.d...)
}

// medianDur is the median of ds: the middle value, or the mean of the
// two middle ones (0 for none).
func medianDur(ds []time.Duration) time.Duration {
	n := len(ds)
	if n == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// replayBudget caps the wall time of one replay loop.
const replayBudget = time.Second

// replayLoop times fn over inputs 0..n-1, cycling through them until
// there are minSamples timings, within replayBudget.
func replayLoop(n, minSamples int, fn func(i int) error) ([]time.Duration, error) {
	var ds []time.Duration
	start := time.Now()
	for i := 0; n > 0 && (i < n || len(ds) < minSamples) && (i == 0 || time.Since(start) < replayBudget); i++ {
		t0 := time.Now()
		if err := fn(i % n); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return ds, nil
}

// replayDispatch replays the distinct requests the server answered
// through the dispatch path's layers one at a time.
func replayDispatch(st *servingState, ms *modelSet, m layers) error {
	served := st.check.Served()
	if len(served) == 0 {
		return errors.New("replay: no served requests")
	}
	steps := []struct {
		name string
		q    []float64
		fn   func(a answer) error
	}{
		{"serve.decode_us", []float64{0.5}, func(a answer) error {
			var dreq serve.DispatchRequest
			dec := json.NewDecoder(bytes.NewReader(a.key.Body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&dreq); err != nil {
				return err
			}
			return dreq.Validate()
		}},
		{"serve.encode_us", []float64{0.5}, func(a answer) error {
			_, err := json.Marshal(a.resp)
			return err
		}},
		{"launch.dispatch_us", []float64{0.5, 0.99}, func(a answer) error {
			k := a.key
			_, err := launch.DispatchTrained(&launch.JobConfig{App: k.App, Budget: k.Budget, Params: k.Params, ModelPath: k.App + ".json"}, ms.trained[k.App])
			return err
		}},
		{"core.optimize_us", []float64{0.5, 0.99}, func(a answer) error {
			_, _, err := ms.trained[a.key.App].Optimize(a.key.Params, a.key.Budget)
			return err
		}},
		{"core.diagnose_us", []float64{0.5}, func(a answer) error {
			for ph, lv := range a.resp.Levels {
				if _, err := ms.trained[a.key.App].DiagnosePhase(a.key.Params, ph, approx.Config(lv)); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, s := range steps {
		ds, err := replayLoop(len(served), 1000, func(i int) error { return s.fn(served[i]) })
		if err != nil {
			return fmt.Errorf("replay %s: %w", s.name, err)
		}
		for _, q := range s.q {
			m.us(fmt.Sprintf("%s.p%g", s.name, 100*q), ds, q)
		}
		m.count(s.name+".samples", float64(len(ds)))
	}

	var loads []time.Duration
	for _, name := range appOrder {
		t0 := time.Now()
		if _, err := core.LoadTrained(bytes.NewReader(ms.raw[name])); err != nil {
			return err
		}
		loads = append(loads, time.Since(t0))
	}
	m.ms("core.load_ms", medianDur(loads))
	return nil
}

// reportBodies returns the reports a client would send for the most
// recent served answers (at most 1000, all still inside the server's
// dispatch-record store).
func reportBodies(st *servingState) [][]byte {
	served := st.check.Served()
	if len(served) > 1000 {
		served = served[len(served)-1000:]
	}
	var bodies [][]byte
	for _, a := range served {
		if b, err := feedbackBody(a.resp); err == nil && b != nil {
			bodies = append(bodies, b)
		}
	}
	return bodies
}

// replayFeedback replays the write path's layers on the feedback
// reports, one function at a time.
func replayFeedback(cfg config, st *servingState, bodies [][]byte, m layers) error {
	served := st.check.Served()
	byID := map[string]*Response{}
	for _, a := range served {
		byID[a.resp.DispatchID] = a.resp
	}
	// Only reports on plans served at the full rung have their dispatch
	// at hand to validate against.
	var known [][]byte
	var reports []feedback.Report
	for _, b := range bodies {
		var rep feedback.Report
		if json.Unmarshal(b, &rep) == nil && byID[rep.DispatchID] != nil {
			known, reports = append(known, b), append(reports, rep)
		}
	}
	if len(known) == 0 {
		return errors.New("replay: no feedback reports")
	}
	ds, err := replayLoop(len(known), 1000, func(i int) error {
		var rep feedback.Report
		dec := json.NewDecoder(bytes.NewReader(known[i]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rep); err != nil {
			return err
		}
		return rep.Validate(byID[rep.DispatchID].Phases)
	})
	if err != nil {
		return fmt.Errorf("replay feedback decode: %w", err)
	}
	m.us("feedback.decode_us.p50", ds, 0.5)

	recs := feedback.NewRecords(0)
	ds, _ = replayLoop(len(served), 1000, func(i int) error {
		r := served[i].resp
		recs.Put(&feedback.DispatchRecord{ID: r.DispatchID, Model: r.App + ".json", Version: r.ModelVersion,
			App: r.App, Budget: r.Budget, Phases: r.Phases, Levels: r.Levels})
		return nil
	})
	m.pct("feedback.records_put_ns.p50", ds, 0.5, time.Nanosecond, "ns")

	// Samples carry the realized-vs-served residuals on the models' log
	// scales, as the server computes them.
	samples := make([][]feedback.Sample, len(reports))
	for i, rep := range reports {
		pred := byID[rep.DispatchID].PhasePredictions
		for _, o := range rep.Observations {
			p := pred[o.Phase]
			samples[i] = append(samples[i], feedback.Sample{Phase: o.Phase,
				SpeedupResidual: math.Log(o.Speedup) - math.Log(p.Speedup),
				DegResidual:     math.Log1p(o.Degradation) - math.Log1p(p.Degradation)})
		}
	}
	det := feedback.NewDetector(feedback.Options{})
	ds, _ = replayLoop(len(samples), 1000, func(i int) error {
		det.Observe("replay.json", samples[i])
		return nil
	})
	m.us("feedback.detector_observe_us.p50", ds, 0.5)

	l, err := feedback.OpenLogOptions(filepath.Join(cfg.work, "replay.jsonl"), feedback.LogOptions{Sync: true})
	if err != nil {
		return err
	}
	ds, err = replayLoop(len(reports), 1000, func(i int) error {
		o := reports[i].Observations[0]
		return l.Append(feedback.Entry{DispatchID: reports[i].DispatchID, Model: "replay.json", Version: "v",
			Phase: o.Phase, Speedup: o.Speedup, Degradation: o.Degradation})
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("replay log append: %w", err)
	}
	m.us("feedback.log_append_us.p50", ds, 0.5)
	m.us("feedback.log_append_us.p99", ds, 0.99)
	return nil
}

// replayObs times obs.Inc on a dispatch-path counter, in batches of 1000
// calls (one call is shorter than the clock's resolution).
func replayObs(m layers) {
	var batches []time.Duration
	for b := 0; b < 200; b++ {
		t0 := time.Now()
		for i := 0; i < 1000; i++ {
			obs.Inc("serve.dispatch.requests")
		}
		batches = append(batches, time.Since(t0))
	}
	v, _ := Percentile(batches, 0.5)
	m.t.set("obs.inc_ns.p50", float64(v)/1000, "ns")
}
