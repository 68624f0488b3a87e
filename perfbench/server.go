package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"opprox/internal/feedback"
	"opprox/internal/obs"
	"opprox/internal/serve"
)

// rungHeader is the response header naming the ladder rung that served
// a dispatch.
const rungHeader = "X-Opprox-Rung"

// Response is a decoded dispatch body.
type Response = serve.DispatchResponse

// procServer is an opprox-serve child process on a loopback port.
type procServer struct {
	cmd  *exec.Cmd
	URL  string
	exit chan error
}

// startServer launches bin with default flags on an ephemeral loopback
// port, restricted to the CPUs in cpus when it is not nil, and returns
// once /healthz answers.
func startServer(bin, models string, cpus *cpuMask) (*procServer, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-models", models)
	// The server must not outlive the benchmark, even one killed on a
	// timeout.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if cpus == nil {
		err = cmd.Start()
	} else {
		err = startPinned(*cpus, cmd.Start)
	}
	if err != nil {
		return nil, err
	}
	ps := &procServer{cmd: cmd, exit: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// Read stderr to EOF so the child never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				f := strings.Fields(line[i+len("listening on "):])
				if len(f) > 0 {
					select {
					case addr <- f[0]:
					default:
					}
				}
			}
		}
		ps.exit <- cmd.Wait()
	}()
	select {
	case ps.URL = <-addr:
	case err := <-ps.exit:
		ps.exit <- err
		return nil, fmt.Errorf("opprox-serve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		ps.Stop()
		return nil, errors.New("opprox-serve did not start listening within 30s")
	}
	if err := waitHealthy(ps.URL); err != nil {
		ps.Stop()
		return nil, err
	}
	return ps, nil
}

func waitHealthy(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s/healthz not healthy within 30s", url)
}

// Stop terminates the server and waits for it to exit.
func (ps *procServer) Stop() {
	ps.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-ps.exit:
	case <-time.After(15 * time.Second):
		ps.cmd.Process.Kill()
		<-ps.exit
	}
}

// fetchMetrics reads the obs.Default snapshot the server at url exposes
// on /metricsz.
func fetchMetrics(url string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metricsz: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("/metricsz: %w", err)
	}
	return snap, nil
}

// PeakRSSMB reads the child's peak resident set (VmHWM) in MB.
func (ps *procServer) PeakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", ps.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// CPUTime reads the child's CPU time so far: the sum over its threads
// of the time on a CPU that /proc/<pid>/task/<tid>/schedstat reports, in
// nanoseconds (/proc/<pid>/stat counts 10 ms ticks).
func (ps *procServer) CPUTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", ps.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, task := range tasks {
		b, err := os.ReadFile(dir + "/" + task.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited since the listing
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad schedstat %q: %v", b, err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// Client owns the benchmark's HTTP connections: one keep-alive
// connection per worker, never more than conns in total.
type Client struct {
	url   string
	hc    *http.Client
	check *Checker

	// tr, when set (traced run), tags each request with a sequence
	// number and records its client-side span.
	tr     *tracer
	mu     sync.Mutex
	cspans []clientSpan
}

// clientSpan is one request as the client saw it.
type clientSpan struct {
	id   int64
	path string
	d    time.Duration
}

// reset drops the recorded spans (set-up traffic).
func (c *Client) reset() {
	c.mu.Lock()
	c.cspans = nil
	c.mu.Unlock()
}

func (c *Client) spans() []clientSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]clientSpan(nil), c.cspans...)
}

func newClient(url string, conns int, check *Checker) *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &Client{url: url, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, check: check}
}

func (c *Client) Close() { c.hc.CloseIdleConnections() }

func (c *Client) post(path string, body []byte) (status int, rung string, resp []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	var t0 time.Time
	if c.tr != nil {
		id = c.tr.newID()
		req.Header.Set(seqHeader, strconv.FormatInt(id, 10))
		t0 = time.Now()
	}
	r, err := c.hc.Do(req)
	if err == nil {
		resp, err = io.ReadAll(r.Body)
		r.Body.Close()
	}
	if c.tr != nil {
		d := c.tr.record(id, 0, "client "+path, t0, time.Now())
		c.mu.Lock()
		c.cspans = append(c.cspans, clientSpan{id: id, path: path, d: d})
		c.mu.Unlock()
	}
	if err != nil {
		return 0, "", nil, err
	}
	return r.StatusCode, r.Header.Get(rungHeader), resp, nil
}

// Dispatch sends one dispatch and checks the answer.
func (c *Client) Dispatch(k *Key) error {
	status, rung, body, err := c.post("/v1/dispatch", k.Body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("dispatch: HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	return c.check.Dispatch(k, rung, body)
}

// report posts one feedback report and checks the answer.
func (c *Client) report(body []byte) error {
	status, _, out, err := c.post("/v1/feedback", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("feedback: HTTP %d: %s", status, bytes.TrimSpace(out))
	}
	var fr struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(out, &fr); err != nil {
		return fmt.Errorf("feedback: body does not decode: %v", err)
	}
	if fr.Status != "ok" {
		return fmt.Errorf("feedback: status %q", fr.Status)
	}
	return nil
}

// feedbackBody renders the report for a served dispatch whose realized
// values equal its predictions, or nil when there is nothing to report:
// a degraded answer carries no dispatch ID, and a phase whose predicted
// degradation is negative (the model's raw prediction fell outside the
// invertible range of the degradation scale) has no realized
// counterpart a real run could produce, so it is left out.
func feedbackBody(resp *Response) ([]byte, error) {
	if resp.DispatchID == "" {
		return nil, nil
	}
	rep := feedback.Report{DispatchID: resp.DispatchID}
	for ph, p := range resp.PhasePredictions {
		if p.Degradation < 0 {
			continue
		}
		rep.Observations = append(rep.Observations, feedback.PhaseObservation{
			Phase:       ph,
			Speedup:     p.Speedup,
			Degradation: p.Degradation,
		})
	}
	if len(rep.Observations) == 0 {
		return nil, nil
	}
	return json.Marshal(rep)
}
