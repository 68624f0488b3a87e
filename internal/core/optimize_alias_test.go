package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"opprox/internal/apps"
)

// Regression: Optimize used to return level rows that aliased internal
// menu state (phaseMenu.accurate, ladder cfg slices) and were shared
// between the Schedule and Prediction.PerPhase. A caller mutating
// sched.Levels then silently corrupted the plan's recorded levels.
func TestOptimizeScheduleDoesNotAliasPlan(t *testing.T) {
	_, tr := trainToy(t)
	p := apps.DefaultParams(toyApp{})

	sched, pred, err := tr.Optimize(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.PerPhase) != sched.Phases {
		t.Fatalf("plan has %d phases for a %d-phase schedule", len(pred.PerPhase), sched.Phases)
	}
	want := make([][]int, sched.Phases)
	for ph := range pred.PerPhase {
		want[ph] = append([]int(nil), pred.PerPhase[ph].Levels...)
	}
	orig := planBytes(t, sched, pred)

	// Scribble over the returned schedule.
	for ph := range sched.Levels {
		for bi := range sched.Levels[ph] {
			sched.Levels[ph][bi] = 99
		}
	}
	for ph := range pred.PerPhase {
		for bi, lv := range pred.PerPhase[ph].Levels {
			if lv != want[ph][bi] {
				t.Fatalf("phase %d: mutating sched.Levels changed PerPhase[%d].Levels[%d] from %d to %d",
					ph, ph, bi, want[ph][bi], lv)
			}
		}
	}

	// Then over the plan's rows too. Ladder rungs point into the model's
	// shared configuration space, so neither mutation may leak into a
	// fresh optimization: the same inputs must reproduce the original
	// result byte for byte.
	for ph := range pred.PerPhase {
		for bi := range pred.PerPhase[ph].Levels {
			pred.PerPhase[ph].Levels[bi] = -7
		}
	}
	sched2, pred2, err := tr.Optimize(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := planBytes(t, sched2, pred2); !bytes.Equal(got, orig) {
		t.Fatalf("mutating a returned plan changed the next one:\n got %s\nwant %s", got, orig)
	}
	// The plan rows and schedule rows agree but do not share storage.
	for ph := range pred2.PerPhase {
		sched2.Levels[ph][0] = -1
		if pred2.PerPhase[ph].Levels[0] == -1 {
			t.Fatalf("phase %d: schedule and plan share a level row", ph)
		}
	}
}

// TestOptimizeConcurrent runs Optimize from many goroutines on one model
// whose configuration space is not built yet, so the first-use build
// races with readers (run under -race). Every result must equal the
// sequential answer of an identical model loaded from the same bytes.
func TestOptimizeConcurrent(t *testing.T) {
	_, trained := trainToy(t)
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	load := func() *Trained {
		tr, err := LoadTrained(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	shared, ref := load(), load()

	type query struct {
		p      apps.Params
		budget float64
	}
	rng := rand.New(rand.NewSource(23))
	queries := make([]query, 32)
	want := make([][]byte, len(queries))
	for i := range queries {
		queries[i] = query{apps.Params{"size": 10 + 10*rng.Float64()}, 30 * rng.Float64()}
		sched, pred, err := ref.Optimize(queries[i].p, queries[i].budget)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = planBytes(t, sched, pred)
	}

	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range queries {
				i := (k + w*5) % len(queries)
				sched, pred, err := shared.Optimize(queries[i].p, queries[i].budget)
				if err != nil {
					errs <- err
					return
				}
				got, err := encodePlan(sched, pred)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("worker %d query %d: got %s want %s", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
