package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/obs"
)

const (
	// traceShare is the share of --seconds each of the traced run's three
	// base segments takes.
	traceShare = 1.0 / 3
	// minBaseOps is the least number of base-segment operations: enough
	// for ten samples beyond the p95 however short --seconds is.
	minBaseOps = 210
	// settleDur is how long the base rate runs untimed before a base
	// segment.
	settleDur = 3 * time.Second
)

// servingState is the generated input of one serving run.
type servingState struct {
	wl  Workload
	gen *KeyGen
	// load holds one fresh request per model: sending it loads all five.
	load []Key
	// hot holds the workload's hot keys, sent once before the
	// measurement.
	hot   []Key
	check *Checker
}

func newServingState(wl Workload, seed int64, ms *modelSet) *servingState {
	specs := map[string][]apps.ParamSpec{}
	blocks := map[string][]approx.Block{}
	for name, tr := range ms.trained {
		specs[name], blocks[name] = tr.Specs, tr.Blocks
	}
	st := &servingState{wl: wl, gen: NewKeyGen(seed, specs), check: NewChecker(blocks)}
	for _, app := range appOrder {
		st.load = append(st.load, st.gen.NextFor(app))
	}
	st.hot = st.gen.Keys(wl.HotKeys)
	return st
}

// segment is one open-loop run's input: its key table and traffic.
type segment struct {
	keys []Key
	Traffic
}

func (st *servingState) segment(seed int64, rate float64, d time.Duration) *segment {
	if st.wl.HotKeys > 0 {
		return &segment{st.hot, MakeTraffic(seed, rate, d, st.wl.HotKeys)}
	}
	tr := MakeTraffic(seed, rate, d, 0)
	return &segment{st.gen.Keys(len(tr.Due)), tr}
}

// run sends seg's dispatches open loop.
func (st *servingState) run(c *Client, conns int, seg *segment) Step {
	return RunOpenLoop(seg.Due, conns, func(i int) error { return c.Dispatch(&seg.keys[seg.Keys[i]]) })
}

// send dispatches every key once, closed loop on conns workers.
func send(c *Client, conns int, keys []Key) error {
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	next := 0
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(keys) {
					return
				}
				if err := c.Dispatch(&keys[i]); err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("set-up dispatch: %w", err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// warm sends one request per model, which loads all five, then every
// hot key once.
func (st *servingState) warm(c *Client, conns int) error {
	if err := send(c, conns, st.load); err != nil {
		return err
	}
	return send(c, conns, st.hot)
}

// setUp sets the server up repeatedly (start, pass healthz, load every
// model) and keeps the last one running, warmed. It returns the median
// set-up time; the models are already trained (that is train_cpu_s). The
// hot keys are plain dispatch traffic, whose cost serve-cold measures,
// so they are sent once, untimed.
func (st *servingState) setUp(cfg config, start func() (*procServer, error)) (*procServer, *Client, time.Duration, error) {
	var times []time.Duration
	t0 := time.Now()
	for {
		s0 := time.Now()
		ps, err := start()
		if err != nil {
			return nil, nil, 0, err
		}
		c := newClient(ps.URL, cfg.conns, st.check)
		if err := send(c, cfg.conns, st.load); err != nil {
			c.Close()
			ps.Stop()
			return nil, nil, 0, err
		}
		times = append(times, time.Since(s0))
		n := len(times)
		if n >= setupMax || (n >= setupMin && time.Since(t0) >= setupTime) {
			fmt.Fprintf(os.Stderr, "perfbench: %d set-ups\n", n)
			if err := send(c, cfg.conns, st.hot); err != nil {
				c.Close()
				ps.Stop()
				return nil, nil, 0, err
			}
			return ps, c, medianDur(times), nil
		}
		c.Close()
		ps.Stop()
	}
}

// baseDur is the length of a base segment taking share of --seconds.
func (wl Workload) baseDur(seconds int, share float64) time.Duration {
	d := time.Duration(float64(seconds) * share * float64(time.Second))
	if least := time.Duration(minBaseOps / wl.Rate * float64(time.Second)); d < least {
		d = least
	}
	return d
}

// settle prepares for timing. The training stages leave a large heap and
// dirty files behind, and the first seconds of traffic after set-up ran
// several-fold slower: collect, flush, and run the base rate untimed for
// a while.
func (st *servingState) settle(cfg config, t *tally, c *Client) {
	runtime.GC()
	syscall.Sync()
	seg := st.segment(cfg.seed*1000+400, st.wl.Rate, settleDur)
	t.noteCheckErrs(st.run(c, cfg.conns, seg).Errs)
}

// timed runs a base segment, counting its operations as attempted and
// failed.
func (st *servingState) timed(cfg config, t *tally, c *Client, seg *segment, where string) Step {
	s := st.run(c, cfg.conns, seg)
	t.ops(s.Attempted, s.Errs)
	mean := Mean(s.Latency)
	p95, _ := Percentile(s.Latency, tailQ)
	late, _ := Percentile(s.Late, 0.99)
	fmt.Fprintf(os.Stderr, "perfbench: %s base (%s): %d ops mean %.3fms p95 %.3fms late p99 %.2fms failed %d\n",
		st.wl.Name, where, s.Attempted, millis(mean), millis(p95), millis(late), s.Failed)
	return s
}

// delta is the change of an obs registry between two snapshots.
type delta struct{ before, after obs.Snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// counters sums the deltas of every counter named prefix*suffix.
func (d delta) counters(prefix, suffix string) float64 {
	sum := int64(0)
	for k, v := range d.after.Counters {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			sum += v - d.before.Counters[k]
		}
	}
	return float64(sum)
}

func (d delta) seconds(hist string) float64 {
	return d.after.Histograms[hist].SumSeconds - d.before.Histograms[hist].SumSeconds
}

// mean is the mean duration, in seconds, the histogram observed in
// between (0 for none).
func (d delta) mean(hist string) float64 {
	return ratio(d.seconds(hist), float64(d.after.Histograms[hist].Count-d.before.Histograms[hist].Count))
}

// sample is the child server's state at one moment: its CPU time and
// its /metricsz snapshot.
type sample struct {
	cpu  time.Duration
	snap obs.Snapshot
}

func (ps *procServer) sample() (sample, error) {
	cpu, err := ps.CPUTime()
	if err != nil {
		return sample{}, err
	}
	snap, err := fetchMetrics(ps.URL)
	return sample{cpu, snap}, err
}

// baseWindows is the number of windows the base segment is cut into;
// the server's figures are medians over the windows, so a stretch in
// which the host stalled moves them little.
const baseWindows = 10

// serving is what the serving stage measured, unscaled, with the scale
// factors of set-up and of the base segment.
type serving struct {
	setupTime    time.Duration // median set-up
	cpuPerOp     float64       // server CPU per operation, us
	dispatchMs   float64       // server time per dispatch, ms
	rssMB        float64       // server peak RSS
	setup, serve *stage
}

// runServing drives a child opprox-serve through set-up and the base
// segment, which takes all of --seconds, and stops it. The sampler runs
// on the server's CPU meanwhile.
func runServing(cfg config, t *tally, ms *modelSet, smp *sampler) (*serving, error) {
	st := newServingState(cfg.workload, cfg.seed, ms)
	models := filepath.Join(cfg.work, "models")
	if err := ms.writeModels(models); err != nil {
		return nil, err
	}
	var serverCPUs *cpuMask
	if srv, gen, ok := servingCPUs(); ok {
		restore, err := pinProcess(gen)
		if err != nil {
			return nil, err
		}
		defer restore()
		// On the server's CPU the sampler runs only when the server
		// does not, so a request never waits for a burst.
		smp.place(placement{cpus: srv, idle: true})
		defer smp.place(placement{cpus: allCPUs()})
		serverCPUs = &srv
	}
	out := &serving{setup: smp.begin()}
	ps, c, setup, err := st.setUp(cfg, func() (*procServer, error) { return startServer(cfg.serveBin, models, serverCPUs) })
	if err != nil {
		return nil, err
	}
	defer ps.Stop()
	defer c.Close()
	out.setup.end()
	st.settle(cfg, t, c)
	win := time.Duration(cfg.seconds) * time.Second / baseWindows
	var cpuOp, disp []float64
	out.serve = smp.begin()
	for w := 0; w < baseWindows; w++ {
		seg := st.segment(cfg.seed*1000+int64(w), st.wl.Rate, win)
		before, err := ps.sample()
		if err != nil {
			return nil, err
		}
		base := st.timed(cfg, t, c, seg, fmt.Sprintf("child, window %d", w))
		after, err := ps.sample()
		if err != nil {
			return nil, err
		}
		// The server's CPU per operation: its cost, free of the wake-up
		// and scheduling delays that swing sub-millisecond latency on a
		// shared host (see README.md).
		cpuOp = append(cpuOp, float64(after.cpu-before.cpu)/1e3/float64(base.Attempted))
		// The server's own time per dispatch, from its serve.http.dispatch
		// timer: waits inside the server count, the client's do not.
		disp = append(disp, 1e3*delta{before.snap, after.snap}.mean("serve.http.dispatch"))
	}
	out.serve.end()
	rss, err := ps.PeakRSSMB()
	if err != nil {
		return nil, err
	}
	out.setupTime, out.cpuPerOp, out.dispatchMs, out.rssMB = setup, median(cpuOp), median(disp), rss
	return out, nil
}
