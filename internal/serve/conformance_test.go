package serve

// The black-box serving conformance suite: for a fixed (model version,
// params, budget), every serving path must return byte-identical
// response bodies — cold, plan-cache hit, coalesced onto one flight
// under concurrency, sharded behind one replica, and sharded across
// three replicas with proxy hops — and the identity must survive
// promote -> rollback cycles.
// The suite only speaks HTTP (plus one ConfigureCluster call per
// server), so any future cache, coalescing or routing change that skews
// a single byte fails here regardless of which internal layer caused it.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"opprox/internal/shard"
)

// conformanceDispatch posts the canonical dispatch request and returns
// the raw body after asserting a non-degraded 200.
func conformanceDispatch(t *testing.T, baseURL string) []byte {
	t.Helper()
	status, body := postJSON(t, baseURL+"/v1/dispatch", dispatchBody)
	if status != http.StatusOK {
		t.Fatalf("dispatch: %d %s", status, body)
	}
	var resp DispatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatalf("dispatch degraded: %s", body)
	}
	return body
}

func assertSameBody(t *testing.T, path string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s response differs from cold baseline:\n got %s\nwant %s", path, got, want)
	}
}

// newShardedFleet builds n in-process replicas over one shared store,
// wires them into a cluster, and returns their names and base URLs.
// Replica names are deliberately unequal to the smoke script's so the
// routing is exercised under more than one topology.
func newShardedFleet(t *testing.T, store Store, n int, opt ...func(*Options)) (names []string, urls map[string]string) {
	t.Helper()
	all := []string{"alpha", "beta", "gamma", "delta"}
	names = all[:n]
	servers := make([]*Server, n)
	urls = make(map[string]string, n)
	for i, name := range names {
		o := Options{Store: store, Registry: RegistryOptions{RetryBase: time.Microsecond}}
		for _, f := range opt {
			f(&o)
		}
		servers[i] = New(o)
		ts := httptest.NewServer(servers[i].Handler())
		t.Cleanup(ts.Close)
		urls[name] = ts.URL
	}
	for i, name := range names {
		err := servers[i].ConfigureCluster(ClusterOptions{Self: name, Replicas: urls})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names, urls
}

// TestServingConformance is the five-path byte-identity matrix.
func TestServingConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)

	// Path 1+2: cold, then plan-cache hit, on a fresh standalone server.
	coldSrv := newTestServer(t, store)
	want := conformanceDispatch(t, coldSrv.URL)
	hit := conformanceDispatch(t, coldSrv.URL)
	assertSameBody(t, "plan-cache-hit", hit, want)

	// Path 3: coalesced — plan cache disabled so every request takes the
	// computation path, and a concurrent burst makes identical requests
	// collapse onto shared flights.
	coalSrv := newTestServer(t, store, func(o *Options) { o.PlanCacheCap = -1 })
	const burst = 16
	bodies := make([][]byte, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(coalSrv.URL+"/v1/dispatch", "application/json", strings.NewReader(dispatchBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Error(err)
				return
			}
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		assertSameBody(t, "coalesced", b, want)
		_ = i
	}

	// Path 4: sharded, one replica — the proxy-or-serve decision always
	// lands on serve.
	_, urls1 := newShardedFleet(t, store, 1)
	for _, u := range urls1 {
		assertSameBody(t, "sharded-1-replica", conformanceDispatch(t, u), want)
	}

	// Path 5: sharded, three replicas — the dispatch reaches the owner
	// directly on one URL and via a proxy hop on the other two, and all
	// three relay identical bytes.
	names3, urls3 := newShardedFleet(t, store, 3)
	for _, name := range names3 {
		assertSameBody(t, "sharded-3-replica via "+name, conformanceDispatch(t, urls3[name]), want)
	}
}

// TestServingConformanceAcrossPromoteRollback drives a real shadow
// promote and a rollback on a standalone server: post-promote bodies
// must match a fresh server started on the promoted store (no cached
// leftovers of the old version), and post-rollback bodies must be
// byte-identical to the original cold baseline again (no cached
// leftovers of the promoted version).
func TestServingConformanceAcrossPromoteRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	opts := pilotOptions(store)
	opts.Lifecycle.DisableAutoPromote = true
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	original := conformanceDispatch(t, ts.URL)
	var dr DispatchResponse
	if err := json.Unmarshal(original, &dr); err != nil {
		t.Fatal(err)
	}

	// Drive drifted feedback until a recalibrated shadow dark-launches.
	shadowed := false
	for i := 0; i < 50 && !shadowed; i++ {
		status, body := postJSON(t, ts.URL+"/v1/feedback", driftedFeedback(dr.DispatchID))
		if status != http.StatusOK {
			t.Fatalf("feedback: %d %s", status, body)
		}
		var fr feedbackResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		shadowed = fr.ShadowCreated != ""
	}
	if !shadowed {
		t.Fatal("drift feedback never created a shadow")
	}

	if status, body := postJSON(t, ts.URL+"/v1/promote", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("promote: %d %s", status, body)
	}
	promoted := conformanceDispatch(t, ts.URL)
	if bytes.Equal(promoted, original) {
		t.Fatal("promote did not change the served plan (shadow identical to live?)")
	}
	// Cache transparency across the swap: a cached repeat and a fresh
	// server on the promoted store agree byte for byte.
	assertSameBody(t, "post-promote cache hit", conformanceDispatch(t, ts.URL), promoted)
	fresh := newTestServer(t, store)
	assertSameBody(t, "fresh server on promoted store", conformanceDispatch(t, fresh.URL), promoted)

	if status, body := postJSON(t, ts.URL+"/v1/rollback", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("rollback: %d %s", status, body)
	}
	assertSameBody(t, "post-rollback cold", conformanceDispatch(t, ts.URL), original)
	assertSameBody(t, "post-rollback cache hit", conformanceDispatch(t, ts.URL), original)
}

// legacyFrontLibraryModel rewrites a saved model the way builds with the
// removed Pareto-front plan library wrote it: a FrontLibrary key inside
// "options" and a top-level "front_library" block of per-class,
// per-phase survivor indices.
func legacyFrontLibraryModel(t *testing.T, plain []byte) []byte {
	t.Helper()
	var file map[string]json.RawMessage
	if err := json.Unmarshal(plain, &file); err != nil {
		t.Fatal(err)
	}
	var opts map[string]json.RawMessage
	if err := json.Unmarshal(file["options"], &opts); err != nil {
		t.Fatal(err)
	}
	opts["FrontLibrary"] = json.RawMessage("true")
	var classes map[string]json.RawMessage
	if err := json.Unmarshal(file["classes"], &classes); err != nil {
		t.Fatal(err)
	}
	var phases int
	if err := json.Unmarshal(file["phases"], &phases); err != nil {
		t.Fatal(err)
	}
	survivors := make(map[string][][]int, len(classes))
	for class := range classes {
		for p := 0; p < phases; p++ {
			survivors[class] = append(survivors[class], []int{1, 2, 5})
		}
	}
	var err error
	if file["options"], err = json.Marshal(opts); err != nil {
		t.Fatal(err)
	}
	if file["front_library"], err = json.Marshal(map[string]any{"classes": survivors}); err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	return legacy
}

// servedPlan is a dispatch body without the fields that hash the model
// file's bytes (model version and the dispatch ID derived from it), so
// two files holding the same model can be compared by what they serve.
func servedPlan(t *testing.T, body []byte) []byte {
	t.Helper()
	var dr DispatchResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	dr.ModelVersion, dr.DispatchID = "", ""
	plan, err := json.Marshal(dr)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestServingConformanceFrontLibrary serves a model file written by a
// build with the removed Pareto-front plan library (-front-library). The
// file must load, and serve the same plan as the plain file — cold,
// cached, and at every step of a promote -> rollback drill run in
// lockstep on a plain and a legacy server. Within the legacy server the
// usual byte identities hold: cache hits, a fresh server on the promoted
// store, and the original bytes again after rollback. The promoted shadow
// is re-saved by this build, so it no longer carries the legacy keys.
func TestServingConformanceFrontLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	plainStore := newFakeStore()
	plainStore.files["pso.json"] = trainedModelJSON(t)
	legacyStore := newFakeStore()
	legacyStore.files["pso.json"] = legacyFrontLibraryModel(t, trainedModelJSON(t))

	plainSrv := newTestServer(t, plainStore)
	want := servedPlan(t, conformanceDispatch(t, plainSrv.URL))
	legacySrv := newTestServer(t, legacyStore)
	cold := conformanceDispatch(t, legacySrv.URL)
	assertSameBody(t, "legacy file cold", servedPlan(t, cold), want)
	assertSameBody(t, "legacy file cache hit", conformanceDispatch(t, legacySrv.URL), cold)

	// Promote -> rollback, driven identically on both stores.
	servers := make([]string, 2)
	for i, store := range []*fakeStore{plainStore, legacyStore} {
		opts := pilotOptions(store)
		opts.Lifecycle.DisableAutoPromote = true
		ts := httptest.NewServer(New(opts).Handler())
		t.Cleanup(ts.Close)
		servers[i] = ts.URL
	}
	original := make([][]byte, 2)
	for i, url := range servers {
		original[i] = conformanceDispatch(t, url)
	}
	assertSameBody(t, "legacy pilot cold", original[1], cold)
	for i, url := range servers {
		var dr DispatchResponse
		if err := json.Unmarshal(original[i], &dr); err != nil {
			t.Fatal(err)
		}
		shadowed := false
		for n := 0; n < 50 && !shadowed; n++ {
			status, body := postJSON(t, url+"/v1/feedback", driftedFeedback(dr.DispatchID))
			if status != http.StatusOK {
				t.Fatalf("feedback: %d %s", status, body)
			}
			var fr feedbackResponse
			if err := json.Unmarshal(body, &fr); err != nil {
				t.Fatal(err)
			}
			shadowed = fr.ShadowCreated != ""
		}
		if !shadowed {
			t.Fatalf("server %d: drift feedback never created a shadow", i)
		}
		if status, body := postJSON(t, url+"/v1/promote", `{"model": "pso.json"}`); status != http.StatusOK {
			t.Fatalf("promote: %d %s", status, body)
		}
	}
	promoted := conformanceDispatch(t, servers[1])
	if bytes.Equal(promoted, original[1]) {
		t.Fatal("promote did not change the served plan")
	}
	assertSameBody(t, "legacy post-promote", servedPlan(t, promoted), servedPlan(t, conformanceDispatch(t, servers[0])))
	assertSameBody(t, "legacy post-promote cache hit", conformanceDispatch(t, servers[1]), promoted)
	fresh := newTestServer(t, legacyStore)
	assertSameBody(t, "fresh server on promoted legacy store", conformanceDispatch(t, fresh.URL), promoted)
	legacyStore.mu.Lock()
	promotedFile := string(legacyStore.files["pso.json"])
	legacyStore.mu.Unlock()
	for _, key := range []string{`"FrontLibrary"`, `"front_library"`} {
		if strings.Contains(promotedFile, key) {
			t.Fatalf("promoted model file still carries legacy key %s", key)
		}
	}

	for _, url := range servers {
		if status, body := postJSON(t, url+"/v1/rollback", `{"model": "pso.json"}`); status != http.StatusOK {
			t.Fatalf("rollback: %d %s", status, body)
		}
	}
	assertSameBody(t, "legacy post-rollback", conformanceDispatch(t, servers[1]), original[1])
	assertSameBody(t, "plain post-rollback", conformanceDispatch(t, servers[0]), original[0])
}

// TestShardedPromoteRollbackCoherence runs the lifecycle drill across a
// 3-replica fleet through a non-owner replica: dispatch, feedback,
// promote and rollback all route to the model's owner, so every replica
// serves the same version at every step (invariant D11) and the bodies
// track the standalone baseline byte for byte.
func TestShardedPromoteRollbackCoherence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	store := newFakeStore()
	store.files["pso.json"] = trainedModelJSON(t)
	names, urls := newShardedFleet(t, store, 3, func(o *Options) {
		po := pilotOptions(store)
		o.Drift = po.Drift
		o.Lifecycle = po.Lifecycle
		o.Lifecycle.DisableAutoPromote = true
	})

	tbl, err := shard.New(names...)
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := tbl.Owner("pso.json")
	client := ""
	for _, n := range names {
		if n != owner {
			client = n
			break
		}
	}
	t.Logf("owner=%s, driving everything through non-owner %s", owner, client)

	original := conformanceDispatch(t, urls[client])
	var dr DispatchResponse
	if err := json.Unmarshal(original, &dr); err != nil {
		t.Fatal(err)
	}

	// Feedback lands on the client replica, which holds no record for
	// the dispatch (the owner served it) and must forward the report.
	shadowed := false
	for i := 0; i < 50 && !shadowed; i++ {
		status, body := postJSON(t, urls[client]+"/v1/feedback", driftedFeedback(dr.DispatchID))
		if status != http.StatusOK {
			t.Fatalf("forwarded feedback: %d %s", status, body)
		}
		var fr feedbackResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		shadowed = fr.ShadowCreated != ""
	}
	if !shadowed {
		t.Fatal("forwarded drift feedback never created a shadow on the owner")
	}

	if status, body := postJSON(t, urls[client]+"/v1/promote", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("proxied promote: %d %s", status, body)
	}
	promoted := conformanceDispatch(t, urls[client])
	if bytes.Equal(promoted, original) {
		t.Fatal("proxied promote did not change the served plan")
	}
	for _, n := range names {
		assertSameBody(t, "post-promote via "+n, conformanceDispatch(t, urls[n]), promoted)
	}

	if status, body := postJSON(t, urls[client]+"/v1/rollback", `{"model": "pso.json"}`); status != http.StatusOK {
		t.Fatalf("proxied rollback: %d %s", status, body)
	}
	for _, n := range names {
		assertSameBody(t, "post-rollback via "+n, conformanceDispatch(t, urls[n]), original)
	}
}

// TestClusterEndpoint checks the introspection view from both a
// standalone server and each member of a sharded fleet.
func TestClusterEndpoint(t *testing.T) {
	store := newFakeStore()
	ts := newTestServer(t, store)
	status, body := getJSON(t, ts.URL+"/v1/cluster")
	if status != http.StatusOK {
		t.Fatalf("standalone /v1/cluster: %d %s", status, body)
	}
	var cr clusterResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Sharded {
		t.Fatalf("standalone server claims sharding: %s", body)
	}

	names, urls := newShardedFleet(t, store, 3)
	for _, name := range names {
		status, body := getJSON(t, urls[name]+"/v1/cluster")
		if status != http.StatusOK {
			t.Fatalf("%s /v1/cluster: %d %s", name, status, body)
		}
		cr = clusterResponse{}
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if !cr.Sharded || cr.Self != name || len(cr.Replicas) != 3 {
			t.Fatalf("%s cluster view: %s", name, body)
		}
		selfSeen := false
		for _, r := range cr.Replicas {
			if r.Self {
				if r.Name != name {
					t.Fatalf("%s marks %s as self", name, r.Name)
				}
				selfSeen = true
			}
			if r.URL == "" {
				t.Fatalf("replica %s has no url: %s", r.Name, body)
			}
		}
		if !selfSeen {
			t.Fatalf("%s cluster view has no self marker: %s", name, body)
		}
	}
}
