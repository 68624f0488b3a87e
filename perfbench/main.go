// Command perfbench is the end-to-end benchmark of OPPROX as served: it
// trains the five applications' models, measures their Fig. 14 work
// saved and a retraining pass in-process, then drives a real
// opprox-serve over loopback with a seeded open-loop load generator.
//
// Usage (normally through run.sh, which builds both binaries first):
//
//	perfbench -serve BIN -work DIR --workload serve-hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the server runs in-process behind
// timing wrappers and the metrics are the per-layer ones. README.md
// describes every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// Metric is one reported figure with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

type config struct {
	workload Workload
	seed     int64
	seconds  int
	trace    bool
	serveBin string
	work     string
	conns    int
}

func main() {
	var cfg config
	name := flag.String("workload", "", "serve-hot or serve-cold")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: traffic, params, budgets, telemetry noise")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds of traffic")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve", "", "opprox-serve binary built from the tree under test")
	flag.StringVar(&cfg.work, "work", ".bench_build", "scratch directory for models, logs and spans")
	flag.Parse()
	// The generator's own garbage collection would show up as latency;
	// collect less often (the run's heap stays small).
	debug.SetGCPercent(400)

	wl, ok := Workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	cfg.workload, cfg.trace = wl, *trace != 0
	cfg.conns = runtime.NumCPU()
	if wl.Conns > 0 && wl.Conns < cfg.conns {
		cfg.conns = wl.Conns
	}
	if !cfg.trace && cfg.serveBin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -serve is required")
		os.Exit(2)
	}

	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.work = dir
	res, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// tally accumulates operation counts and metrics across the run.
type tally struct {
	Result
	problems []string
}

func newTally() *tally {
	return &tally{Result: Result{Correct: true, Metrics: map[string]Metric{}}}
}

func (t *tally) set(name string, v float64, unit string) {
	t.Metrics[name] = Metric{Value: v, Unit: unit}
}

// ops records n operations of which the listed errors failed.
func (t *tally) ops(n int, errs []error) {
	t.Attempted += n
	t.Failed += len(errs)
	t.noteErrs(errs)
}

// noteErrs logs errors to stderr and clears Correct for any output-check
// failure (a failed operation alone does not make the outputs wrong).
func (t *tally) noteErrs(errs []error) {
	for i, err := range errs {
		if isCheckErr(err) {
			t.Correct = false
		}
		if i < 5 {
			t.problems = append(t.problems, err.Error())
		}
	}
}

// noteCheckErrs records only the output-check failures among errs.
func (t *tally) noteCheckErrs(errs []error) {
	var bad []error
	for _, err := range errs {
		if isCheckErr(err) {
			bad = append(bad, err)
		}
	}
	t.noteErrs(bad)
}

func run(cfg config) (*Result, error) {
	t := newTally()
	var err error
	if cfg.trace {
		err = runTraced(cfg, t)
	} else {
		err = runUntraced(cfg, t)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", p)
	}
	return &t.Result, nil
}

// runUntraced is the end-to-end run: training, quality and retraining
// in-process, then a child opprox-serve under the workload's traffic.
// Every time figure is scaled to the reference host by the sampler's
// bursts during its stage (calib.go).
func runUntraced(cfg config, t *tally) error {
	smp := startSampler()
	defer smp.Stop()
	tr, err := runTraining(cfg, t, nil, smp)
	if err != nil {
		return err
	}
	sv, err := runServing(cfg, t, tr.models, smp)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: host speed factors: training %.3f, retraining %.3f, set-up %.3f, serving %.3f; unscaled: setup %.4gs, train %.4gs, retrain %.4gs, cpu/op %.4gus, dispatch %.4gms\n",
		tr.train.f, tr.retrain.f, sv.setup.f, sv.serve.f, sv.setupTime.Seconds(), tr.trainCPU.Seconds(), tr.retrainCPU.Seconds(), sv.cpuPerOp, sv.dispatchMs)
	t.set("setup_s", sv.setup.f*sv.setupTime.Seconds(), "s")
	t.set("train_cpu_s", tr.train.f*tr.trainCPU.Seconds(), "s")
	t.set("retrain_cpu_s", tr.retrain.f*tr.retrainCPU.Seconds(), "s")
	t.set("work_saved_pct", tr.quality.WorkSavedPct, "%")
	t.set("server_cpu_us_per_op", sv.serve.f*sv.cpuPerOp, "us")
	t.set("server_dispatch_ms", sv.serve.f*sv.dispatchMs, "ms")
	t.set("server_rss_mb", sv.rssMB, "MB")
	return nil
}

// stage is a stretch of the run whose figures the sampler's bursts in
// it scale.
type stage struct {
	s    *sampler
	from int
	cpu0 time.Duration
	f    float64 // the stage's scale factor, once ended
}

func (s *sampler) begin() *stage { return &stage{s: s, from: s.mark(), cpu0: s.cpu()} }

// end closes the stage, sets its factor and returns the CPU time the
// sampler took during it.
func (st *stage) end() time.Duration {
	st.f = st.s.factor(st.from, st.s.mark())
	return st.s.cpu() - st.cpu0
}

// training is the outcome of the in-process stages, unscaled, with each
// stage's scale factor.
type training struct {
	models         *modelSet
	trainCPU       time.Duration // core.Train of all five apps
	quality        Quality
	retrainCPU     time.Duration // per Extract + Retrain pass
	train, retrain *stage
}

// runTraining trains the model set, measures its Fig. 14 quality and
// runs the retraining pipeline, counting each retrain pass as an
// operation. hooks (traced run only) observe each stage.
func runTraining(cfg config, t *tally, hooks *trainHooks, smp *sampler) (*training, error) {
	var out training
	out.train = smp.begin()
	cpu0 := processCPU()
	ms, err := trainAll(hooks.wrapApp())
	if err != nil {
		return nil, err
	}
	out.trainCPU = processCPU() - cpu0 - out.train.end()
	out.models = ms
	hooks.trained()

	q, err := ms.measureQuality()
	if err != nil {
		return nil, err
	}
	// A cell over budget is not a failed operation: it is a measured
	// property of the trained models, the same on every run, and it
	// already counts 0 in work_saved_pct. It is reported here and as
	// quality.budget_violations in the traced run.
	for _, d := range q.Detail {
		fmt.Fprintln(os.Stderr, "perfbench: over budget:", d)
	}
	out.quality = q
	hooks.evaluated(q)

	logPath := filepath.Join(cfg.work, "telemetry.jsonl")
	if err := writeTelemetry(logPath, ms.trained[retrainModel], cfg.seed); err != nil {
		return nil, err
	}
	var rerrs []error
	var perPass []time.Duration
	passes := 0
	out.retrain = smp.begin()
	for t0 := time.Now(); len(perPass) < retrainChunks || time.Since(t0) < retrainWindow; {
		cpu0, s0 := processCPU(), smp.cpu()
		for i := 0; i < retrainChunk; i++ {
			passes++
			rt, err := runRetrain(logPath, ms.raw[retrainModel], ms.trained[retrainModel], hooks != nil)
			if err != nil {
				rerrs = append(rerrs, fmt.Errorf("retrain: %w", err))
				continue
			}
			hooks.retrained(rt)
		}
		perPass = append(perPass, (processCPU()-cpu0-(smp.cpu()-s0))/retrainChunk)
	}
	out.retrain.end()
	out.retrainCPU = medianDur(perPass)
	t.ops(passes, rerrs)
	if len(rerrs) == passes {
		return nil, fmt.Errorf("every retrain failed: %v", rerrs[0])
	}
	return &out, nil
}

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// retrain_cpu_s is the median over chunks of retrainChunk passes of the
// CPU time per Extract → Retrain pass, over at least retrainChunks chunks
// and retrainWindow. CPU time, because the pass's wall time doubled from
// run to run: its parallel fits wait on whichever worker the host stalls.
const (
	retrainChunk  = 4
	retrainChunks = 5
	retrainWindow = 4 * time.Second
)

// setup_s is the median of at least setupMin set-ups, repeated for at
// least setupTime. setupMax only caps a host on which one set-up takes
// under 15 ms; at the usual ~50 ms the time decides.
const (
	setupMin  = 3
	setupMax  = 200
	setupTime = 4 * time.Second
)

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
