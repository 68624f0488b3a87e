package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"opprox/internal/apps/pso"
	"opprox/internal/launch"
	"opprox/internal/obs"
)

func newTestServer(t *testing.T, store Store, opts ...func(*Options)) *httptest.Server {
	t.Helper()
	o := Options{Store: store, Registry: RegistryOptions{RetryBase: time.Microsecond}}
	for _, f := range opts {
		f(&o)
	}
	srv := New(o)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

const dispatchBody = `{"app": "pso", "budget": 10, "params": {"swarm": 16, "dim": 4}, "model_path": "pso.json"}`

func TestServeDispatchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	ts := newTestServer(t, store)

	status, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp DispatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatalf("healthy dispatch marked degraded: %s", body)
	}
	if resp.App != "pso" || resp.Budget != 10 || resp.Phases != 2 {
		t.Fatalf("bad response: %s", body)
	}
	if resp.Degradation > 10 {
		t.Fatalf("plan predicts %.2f%% over the 10%% budget", resp.Degradation)
	}
	if len(resp.Levels) != resp.Phases {
		t.Fatalf("levels/phases mismatch: %s", body)
	}
	// The served environment must decode to the served schedule for the
	// real application block set — the same round-trip contract the
	// one-shot launcher has.
	sched, err := launch.DecodeEnv(resp.Env, pso.New().Blocks())
	if err != nil {
		t.Fatal(err)
	}
	for ph := range resp.Levels {
		for bi, lv := range resp.Levels[ph] {
			if sched.Levels[ph][bi] != lv {
				t.Fatalf("env decodes to level %d at (%d,%d), response says %d",
					sched.Levels[ph][bi], ph, bi, lv)
			}
		}
	}
}

// TestServeByteDeterministic is the serving-layer extension of PR 1's
// determinism suite: the same (model file, params, budget) must yield
// byte-identical bodies across repeated requests and concurrent clients.
func TestServeByteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	ts := newTestServer(t, store)

	_, want := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)

	const clients, perClient = 8, 4
	bodies := make([][]byte, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/dispatch", "application/json", strings.NewReader(dispatchBody))
				if err != nil {
					t.Error(err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				bodies[c*perClient+i] = b
			}
		}(c)
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("response %d differs:\n got %s\nwant %s", i, b, want)
		}
	}
}

func TestServeDegradedOnMissingModel(t *testing.T) {
	store := newFakeStore()
	ts := newTestServer(t, store)
	before := obs.Default.Counter("serve.dispatch.degraded").Value()

	status, body := postJSON(t, ts.URL+"/v1/dispatch",
		`{"app": "pso", "budget": 10, "model_path": "absent.json"}`)
	if status != http.StatusOK {
		t.Fatalf("degraded dispatch must still succeed, got %d: %s", status, body)
	}
	var resp DispatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Reason == "" {
		t.Fatalf("missing model did not degrade: %s", body)
	}
	if resp.Speedup != 1 || resp.Degradation != 0 {
		t.Fatalf("degraded schedule must predict (1, 0): %s", body)
	}
	if len(resp.Env) != 1 || resp.Env[0] != "OPPROX_PHASES=1" {
		t.Fatalf("degraded env = %v, want the bare all-accurate encoding", resp.Env)
	}
	// The degraded env decodes to the all-accurate schedule for any
	// block set.
	sched, err := launch.DecodeEnv(resp.Env, pso.New().Blocks())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range sched.Levels {
		if !cfg.IsAccurate() {
			t.Fatalf("degraded schedule is not all-accurate: %v", sched.Levels)
		}
	}
	if got := obs.Default.Counter("serve.dispatch.degraded").Value(); got != before+1 {
		t.Fatalf("degraded counter moved %d -> %d, want +1", before, got)
	}
}

func TestServeDegradedOnCorruptModel(t *testing.T) {
	store := newFakeStore()
	store.files["bad.json"] = []byte(`{"version": 1, "phases": -3, "blocks": []`)
	ts := newTestServer(t, store)

	status, body := postJSON(t, ts.URL+"/v1/dispatch",
		`{"app": "pso", "budget": 5, "model_path": "bad.json"}`)
	if status != http.StatusOK {
		t.Fatalf("corrupt model must degrade, not fail: %d %s", status, body)
	}
	var resp DispatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Speedup != 1 || resp.Degradation != 0 {
		t.Fatalf("bad degraded response: %s", body)
	}
}

func TestServeStrictSurfacesModelErrors(t *testing.T) {
	store := newFakeStore()
	ts := newTestServer(t, store)

	status, body := postJSON(t, ts.URL+"/v1/dispatch",
		`{"app": "pso", "budget": 10, "model_path": "absent.json", "strict": true}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("strict dispatch got %d, want 503: %s", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error != "model_unavailable" {
		t.Fatalf("error code %q, want model_unavailable", eb.Error)
	}
}

func TestServeBadRequests(t *testing.T) {
	store := newFakeStore()
	ts := newTestServer(t, store)

	cases := []string{
		`not json`,
		`{"app": "", "budget": 1, "model_path": "m.json"}`,
		`{"app": "pso", "budget": -1, "model_path": "m.json"}`,
		`{"app": "pso", "budget": 1}`,
		`{"app": "pso", "budget": 1, "model_path": "m.json", "bogus_field": 1}`,
	}
	for _, body := range cases {
		status, rb := postJSON(t, ts.URL+"/v1/dispatch", body)
		if status != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400 (%s)", body, status, rb)
		}
		var eb errorBody
		if err := json.Unmarshal(rb, &eb); err != nil {
			t.Fatalf("body %q: non-JSON error response %s", body, rb)
		}
		if eb.Error != "bad_request" {
			t.Fatalf("body %q: code %q, want bad_request", body, eb.Error)
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/dispatch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/dispatch = %d, want 400", resp.StatusCode)
	}
}

func TestServeOptimizeErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	ts := newTestServer(t, store)

	// A model whose block names collide after env-key sanitization loads
	// fine (persist does not know the env contract) but cannot be encoded
	// at dispatch time: classified under ErrOptimize, not degraded —
	// degrading would hide a schedule the optimizer did produce.
	colliding := bytes.ReplaceAll(trainedModelJSON(t), []byte(`"velocity"`), []byte(`"posi-tion"`))
	colliding = bytes.ReplaceAll(colliding, []byte(`"position"`), []byte(`"posi_tion"`))
	store.mu.Lock()
	store.files["colliding.json"] = colliding
	store.mu.Unlock()
	status, body := postJSON(t, ts.URL+"/v1/dispatch",
		`{"app": "pso", "budget": 10, "model_path": "colliding.json"}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error != "optimize_failed" {
		t.Fatalf("error code %q, want optimize_failed", eb.Error)
	}
}

// blockingStore parks every Open until the test releases it.
type blockingStore struct{ release chan struct{} }

func (s blockingStore) Open(name string) (io.ReadCloser, error) {
	<-s.release
	return nil, fmt.Errorf("released")
}

func TestServeRequestTimeout(t *testing.T) {
	bs := blockingStore{release: make(chan struct{})}
	defer close(bs.release)
	ts := newTestServer(t, bs, func(o *Options) { o.Timeout = 20 * time.Millisecond })

	status, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error != "timeout" {
		t.Fatalf("error code %q, want timeout", eb.Error)
	}
}

// TestShedDispatchIsNotCached pins that a computation shed on its
// caller's expired context leaves nothing behind: the identical request
// with a live context is computed fresh and gets the cold bytes, also
// after a storm of shed and live requests on one key.
func TestShedDispatchIsNotCached(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	_, want := postJSON(t, newTestServer(t, store).URL+"/v1/dispatch", dispatchBody)

	// The plan cache is off, so every request below reaches the flight.
	srv := New(Options{Store: store, Registry: RegistryOptions{RetryBase: time.Microsecond}, PlanCacheCap: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var dreq DispatchRequest
	if err := json.Unmarshal([]byte(dispatchBody), &dreq); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.mgr.Live(context.Background(), dreq.ModelPath); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()

	shed := obs.Default.Counter("serve.batch.shed").Value()
	if _, _, err := srv.dispatchBody(expired, &dreq); !errors.Is(err, context.Canceled) {
		t.Fatalf("dispatch on an expired context: %v, want context.Canceled", err)
	}
	if got := obs.Default.Counter("serve.batch.shed").Value() - shed; got != 1 {
		t.Fatalf("serve.batch.shed advanced by %d, want 1", got)
	}
	status, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("live request after a shed: %d %s", status, body)
	}
	assertSameBody(t, "live request after a shed", body, want)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ctx := context.Background()
				if (w+i)%2 == 0 {
					ctx = expired
				}
				// Either caller may join the other's flight: an expired
				// one can share a live result, and a live one can see a
				// shed twice in a row, so only the error kind is fixed.
				body, _, err := srv.dispatchBody(ctx, &dreq)
				switch {
				case err != nil && !isContextErr(err):
					t.Errorf("caller got %v, want nil or a context error", err)
				case err == nil && !bytes.Equal(body, want):
					t.Errorf("caller got %s, want %s", body, want)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := srv.flights.Len(); n != 0 {
		t.Fatalf("%d flights left after the storm", n)
	}
	status, body = postJSON(t, ts.URL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("live request after the storm: %d %s", status, body)
	}
	assertSameBody(t, "live request after the storm", body, want)
}

func TestServeReloadEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	ts := newTestServer(t, store)

	// Warm the cache, then corrupt the published file: reload fails, the
	// last-good set keeps serving.
	if status, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody); status != http.StatusOK {
		t.Fatalf("warmup: %d %s", status, body)
	}
	store.mu.Lock()
	store.files["pso.json"] = []byte(`{"version": 1`)
	store.mu.Unlock()

	status, body := postJSON(t, ts.URL+"/v1/reload", `{}`)
	if status != http.StatusOK {
		t.Fatalf("reload: %d %s", status, body)
	}
	var rr reloadResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Reloaded) != 0 || rr.Failed["pso.json"] == "" {
		t.Fatalf("corrupt publish should fail reload: %s", body)
	}
	if status, body := postJSON(t, ts.URL+"/v1/dispatch", dispatchBody); status != http.StatusOK {
		t.Fatalf("last-good model lost after failed reload: %d %s", status, body)
	} else {
		var resp DispatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Degraded {
			t.Fatalf("failed reload degraded a healthy model: %s", body)
		}
	}

	// Publish a good file again: reload succeeds.
	store.mu.Lock()
	store.files["pso.json"] = trainedModelJSON(t)
	store.mu.Unlock()
	status, body = postJSON(t, ts.URL+"/v1/reload", ``)
	if status != http.StatusOK {
		t.Fatalf("reload: %d %s", status, body)
	}
	rr = reloadResponse{}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Reloaded) != 1 || rr.Reloaded[0] != "pso.json" || len(rr.Failed) != 0 {
		t.Fatalf("reload after good publish: %s", body)
	}
}

func TestServeHealthAndMetrics(t *testing.T) {
	store := newFakeStore()
	ts := newTestServer(t, store)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}
	var h map[string]any
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz body: %s", b)
	}

	resp, err = http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz: %d", resp.StatusCode)
	}
	var snap map[string]any
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metricsz is not JSON: %v\n%s", err, b)
	}
}
