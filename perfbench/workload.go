package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"opprox/internal/apps"
	"opprox/internal/launch"
	"opprox/internal/serve"
)

// Key is one distinct dispatch request: (model, params, budget).
type Key struct {
	App    string
	Params apps.Params
	Budget float64
	Body   []byte // the generated POST /v1/dispatch body
}

// KeyGen draws dispatch requests inside each app's trained parameter
// domain: every param between the min and max of its representative
// Values (rounded when every Value is an integer), and the budget in
// [2, 30] at 0.01 resolution. Draws are Latin-hypercube stratified in
// blocks of lhsBlock per app, so any stretch of keys covers each app's
// domain evenly and the mix's cost does not swing with the seed. Keys
// never repeat within one generator.
type KeyGen struct {
	rng     *rand.Rand
	specs   map[string][]apps.ParamSpec
	seen    map[string]bool
	n       int                    // keys returned by Next
	pending map[string][][]float64 // per app: stratified draws not yet used
}

// lhsBlock is the Latin-hypercube block size: each param's range and the
// budget range are cut into lhsBlock strata, one draw per stratum.
const lhsBlock = 20

// Budget range of generated requests, in hundredths.
const (
	minBudgetCenti = 200
	maxBudgetCenti = 3000
)

// NewKeyGen seeds a generator over the apps' parameter specs.
func NewKeyGen(seed int64, specs map[string][]apps.ParamSpec) *KeyGen {
	return &KeyGen{rng: rand.New(rand.NewSource(seed)), specs: specs, seen: map[string]bool{}, pending: map[string][][]float64{}}
}

// Next returns a key not returned before. Apps take turns, so every
// stretch of keys carries the same mix of models: the apps' dispatch
// costs differ tenfold, and a drawn mix would move the figures by seed.
func (g *KeyGen) Next() Key {
	app := appOrder[g.n%len(appOrder)]
	g.n++
	return g.NextFor(app)
}

// draw returns the next stratified point for app: one coordinate in
// [0, 1) per param, plus one for the budget.
func (g *KeyGen) draw(app string) []float64 {
	if len(g.pending[app]) == 0 {
		dims := len(g.specs[app]) + 1
		block := make([][]float64, lhsBlock)
		for i := range block {
			block[i] = make([]float64, dims)
		}
		for d := 0; d < dims; d++ {
			for i, stratum := range g.rng.Perm(lhsBlock) {
				block[i][d] = (float64(stratum) + g.rng.Float64()) / lhsBlock
			}
		}
		g.pending[app] = block
	}
	u := g.pending[app][0]
	g.pending[app] = g.pending[app][1:]
	return u
}

// NextFor returns a key for app, not returned before.
func (g *KeyGen) NextFor(app string) Key {
	for {
		u := g.draw(app)
		params := apps.Params{}
		for i, sp := range g.specs[app] {
			lo, hi, integral := specRange(sp)
			v := lo + u[i]*(hi-lo)
			if integral {
				v = math.Round(v)
			}
			params[sp.Name] = v
		}
		budget := float64(minBudgetCenti+int(u[len(u)-1]*(maxBudgetCenti-minBudgetCenti+1))) / 100
		k := Key{App: app, Params: params, Budget: budget}
		id := fmt.Sprintf("%s|%s|%g", app, params.Key(), budget)
		if g.seen[id] {
			continue
		}
		g.seen[id] = true
		k.Body = dispatchBody(k)
		return k
	}
}

// Keys returns n distinct keys.
func (g *KeyGen) Keys(n int) []Key {
	ks := make([]Key, n)
	for i := range ks {
		ks[i] = g.Next()
	}
	return ks
}

func specRange(sp apps.ParamSpec) (lo, hi float64, integral bool) {
	lo, hi, integral = math.Inf(1), math.Inf(-1), true
	for _, v := range sp.Values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
		if v != math.Trunc(v) {
			integral = false
		}
	}
	return lo, hi, integral
}

func dispatchBody(k Key) []byte {
	b, err := json.Marshal(serve.DispatchRequest{JobConfig: launch.JobConfig{
		App: k.App, Budget: k.Budget, Params: k.Params, ModelPath: k.App + ".json",
	}})
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	return b
}

// Workload is one serving traffic mix.
type Workload struct {
	Name string
	Rate float64 // base offered rate, operations per second
	// HotKeys > 0 draws requests uniformly from that many keys, all sent
	// once before the measurement; with none, every request is a fresh
	// key.
	HotKeys int
	// Conns > 0 caps the generator's connections below nproc.
	Conns int
}

// tailQ is the tail quantile reported: the highest one every workload's
// base segment supports with at least ten samples beyond it.
const tailQ = 0.95

// Workloads are the serving mixes; see README.md for why each exists.
var Workloads = map[string]Workload{
	"serve-hot": {Name: "serve-hot", Rate: 2000, HotKeys: 256},
	// One connection: a miss takes milliseconds of the server's one CPU,
	// and two at once shared it, so each one's time depended on which
	// other key the seed sent alongside it.
	"serve-cold": {Name: "serve-cold", Rate: 40, Conns: 1},
}

// Traffic is the generated input of one open-loop segment: the arrival
// schedule and the key each arrival sends.
type Traffic struct {
	Due  []time.Duration
	Keys []int // index into the segment's key table
}

// MakeTraffic draws one segment's schedule at rate for d. With hot > 0
// each arrival picks one of the first hot keys of the table uniformly;
// with hot == 0 arrival i sends key i, a fresh one.
func MakeTraffic(seed int64, rate float64, d time.Duration, hot int) Traffic {
	tr := Traffic{Due: ArrivalsFor(seed, rate, d)}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	tr.Keys = make([]int, len(tr.Due))
	for i := range tr.Keys {
		if hot == 0 {
			tr.Keys[i] = i
		} else {
			tr.Keys[i] = rng.Intn(hot)
		}
	}
	return tr
}
