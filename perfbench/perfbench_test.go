package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"opprox/internal/approx"
	"opprox/internal/apps"
	"opprox/internal/launch"
	"opprox/internal/serve"
)

func testSpecs() map[string][]apps.ParamSpec {
	specs := map[string][]apps.ParamSpec{}
	for _, name := range appOrder {
		specs[name] = newApp(name).Params()
	}
	return specs
}

func testBlocks() map[string][]approx.Block {
	blocks := map[string][]approx.Block{}
	for _, name := range appOrder {
		blocks[name] = newApp(name).Blocks()
	}
	return blocks
}

func TestSameSeedSameScheduleAndBodies(t *testing.T) {
	gen := func(seed int64) ([]Key, Traffic) {
		g := NewKeyGen(seed, testSpecs())
		return g.Keys(64), MakeTraffic(seed, 500, time.Second, 48)
	}
	k1, t1 := gen(7)
	k2, t2 := gen(7)
	if !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(t1, t2) {
		t.Fatal("same seed gave different inputs")
	}
	k3, t3 := gen(8)
	if reflect.DeepEqual(k1, k3) || reflect.DeepEqual(t1.Due, t3.Due) {
		t.Fatal("different seeds gave identical inputs")
	}
	seen := map[string]bool{}
	for i, k := range k1 {
		if seen[string(k.Body)] {
			t.Fatalf("key %d repeats an earlier body", i)
		}
		seen[string(k.Body)] = true
		if want := appOrder[i%len(appOrder)]; k.App != want {
			t.Fatalf("key %d is for %s, want %s (apps take turns)", i, k.App, want)
		}
		var req serve.DispatchRequest
		if err := json.Unmarshal(k.Body, &req); err != nil || req.Budget != k.Budget || req.App != k.App {
			t.Fatalf("body %s does not carry key %+v: %v", k.Body, k, err)
		}
		if k.Budget < 2 || k.Budget > 30 {
			t.Fatalf("budget %g outside [2, 30]", k.Budget)
		}
		for _, sp := range testSpecs()[k.App] {
			lo, hi, integral := specRange(sp)
			v := k.Params[sp.Name]
			if v < lo || v > hi || (integral && v != float64(int64(v))) {
				t.Fatalf("%s param %s=%g outside its trained domain [%g, %g]", k.App, sp.Name, v, lo, hi)
			}
		}
	}
	for i := 1; i < len(t1.Due); i++ {
		if t1.Due[i] < t1.Due[i-1] {
			t.Fatal("arrivals are not in order")
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Millisecond // reversed: Percentile must sort
		}
		return out
	}
	if _, ok := Percentile(xs(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it, but was reported")
	}
	v, ok := Percentile(xs(1000), 0.99)
	if !ok || v != 990*time.Millisecond {
		t.Fatalf("p99 of 1..1000ms = %v, %v; want 990ms, true", v, ok)
	}
	if _, ok := Percentile(xs(199), 0.95); ok {
		t.Fatal("p95 of 199 samples reported")
	}
	if v, ok := Percentile(xs(21), 0.5); !ok || v != 11*time.Millisecond {
		t.Fatalf("p50 of 1..21ms = %v, %v", v, ok)
	}
	if _, ok := Percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

// TestOpenLoopCountsQueueingAgainstStubServer drives a stub handler that
// serves one request at a time in a fixed 4 ms, so its capacity is
// 250 req/s. Below capacity the generator keeps up and latency is near
// the service time; above it the achieved rate stalls at capacity and
// the backlog shows in the latency, which is timed from each request's
// due time (open loop), not from when a connection came free.
func TestOpenLoopCountsQueueingAgainstStubServer(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a server for about two seconds")
	}
	const service = 4 * time.Millisecond
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(service)
		mu.Unlock()
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	client := srv.Client()
	op := func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	}
	capacity := float64(time.Second / service)

	under := RunOpenLoop(Arrivals(1, capacity/4, 100), 2, op)
	if under.Failed > 0 {
		t.Fatalf("%d failed operations", under.Failed)
	}
	if p50, _ := Percentile(under.Latency, 0.5); p50 > 10*service {
		t.Fatalf("p50 %v at a quarter of capacity, service time %v", p50, service)
	}

	// 300 requests offered in about 0.6 s take at least 1.2 s to serve:
	// the last ones wait about 0.6 s behind the backlog.
	over := RunOpenLoop(Arrivals(2, 2*capacity, 300), 2, op)
	if over.Failed > 0 {
		t.Fatalf("%d failed operations", over.Failed)
	}
	if over.Achieved > 1.1*capacity {
		t.Fatalf("achieved %.0f/s above the stub's capacity %.0f/s", over.Achieved, capacity)
	}
	if p95, _ := Percentile(over.Latency, tailQ); p95 < 300*time.Millisecond {
		t.Fatalf("p95 %v at twice capacity: the backlog is not counted", p95)
	}
}

// validBody renders a correct dispatch answer for k.
func validBody(t *testing.T, k *Key, deg float64) []byte {
	t.Helper()
	blocks := newApp(k.App).Blocks()
	cfg := make(approx.Config, len(blocks))
	cfg[0] = 1
	sched := approx.Schedule{Phases: 2, Levels: []approx.Config{cfg, make(approx.Config, len(blocks))}}
	env, err := launch.EncodeEnv(sched, blocks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(serve.DispatchResponse{
		App: k.App, Budget: k.Budget, Phases: 2, Levels: [][]int{cfg, make([]int, len(blocks))},
		Env: env, Speedup: 1.2, Degradation: deg, DispatchID: "d1", ModelVersion: "v1",
		PhasePredictions: []serve.PhasePrediction{{Speedup: 1.3, Degradation: deg}, {Speedup: 1, Degradation: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckerRejectsTamperedAndOverBudget(t *testing.T) {
	k := NewKeyGen(1, testSpecs()).NextFor("pso")
	k.Budget = 10
	good := validBody(t, &k, 4)

	c := NewChecker(testBlocks())
	if err := c.Dispatch(&k, "full", good); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	if err := c.Dispatch(&k, "cached", good); err != nil {
		t.Fatalf("identical cache hit rejected: %v", err)
	}

	cases := map[string][]byte{
		"over budget":   validBody(t, &k, 12),
		"env tampered":  bytes.Replace(good, []byte("OPPROX_P1_"), []byte("OPPROX_P2_"), 1),
		"phases":        bytes.Replace(good, []byte(`"phases":2`), []byte(`"phases":3`), 1),
		"not json":      good[:len(good)/2],
		"unknown field": bytes.Replace(good, []byte(`{"app"`), []byte(`{"extra":1,"app"`), 1),
	}
	for name, body := range cases {
		if bytes.Equal(body, good) {
			t.Fatalf("%s: tampering did not change the body", name)
		}
		fresh := NewChecker(testBlocks())
		err := fresh.Dispatch(&k, "full", body)
		if err == nil || !isCheckErr(err) {
			t.Errorf("%s: got %v, want an output-check failure", name, err)
		}
	}

	// A repeat that differs from the first answer breaks byte identity.
	other := bytes.Replace(good, []byte(`"model_version":"v1"`), []byte(`"model_version":"v2"`), 1)
	if err := c.Dispatch(&k, "full", other); err == nil || !strings.Contains(err.Error(), "different bytes") {
		t.Fatalf("changed repeat: got %v", err)
	}
}

func TestCellOverBudgetFailsAndSavesNothing(t *testing.T) {
	if saved, ok := scoreCell(30, 4.9, 5); !ok || saved != 30 {
		t.Fatalf("in-budget cell: %g, %v", saved, ok)
	}
	if saved, ok := scoreCell(30, 5.1, 5); ok || saved != 0 {
		t.Fatalf("over-budget cell: %g, %v; want 0, false", saved, ok)
	}
}
