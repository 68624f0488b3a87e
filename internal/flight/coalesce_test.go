package flight

// The tests in this file keep the names of the tests of the removed
// batch coalescer. The serving layer now coalesces uncached dispatches
// with Group.Do followed by Forget, so each test pins, on Group and that
// idiom, the contract the coalescer used to provide for its callers.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// doThenForget is the serving layer's coalescing idiom: share one flight
// among the callers already blocked on it, then drop the slot so no
// result, and no error, outlives the flight.
func doThenForget[V any](g *Group[V], key string, fn func() (V, error)) (V, error, bool) {
	v, err, hit := g.Do(key, fn)
	g.Forget(key)
	return v, err, hit
}

func TestBatcherCollapsesIdenticalKeys(t *testing.T) {
	var g Group[int]
	var computed atomic.Int64
	fn := func(p int) func() (int, error) {
		return func() (int, error) { computed.Add(1); return p + 1000, nil }
	}

	const callers = 16
	var wg sync.WaitGroup
	var hits atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, hit := g.Do("k", fn(7))
			if err != nil || v != 1007 {
				t.Errorf("Do = (%d, %v)", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if computed.Load() != 1 {
		t.Fatalf("computed %d times for one key, want 1", computed.Load())
	}
	if hits.Load() != callers-1 {
		t.Fatalf("%d hits for %d callers, want %d", hits.Load(), callers, callers-1)
	}
	// The result stays cached until Forget.
	if v, err, hit := g.Do("k", fn(999)); v != 1007 || err != nil || !hit {
		t.Fatalf("cached Do = (%d, %v, %v), want (1007, nil, true)", v, err, hit)
	}
	g.Forget("k")
	if v, _, hit := g.Do("k", fn(8)); v != 1008 || hit {
		t.Fatalf("post-Forget Do = (%d, hit=%v), want fresh 1008", v, hit)
	}
	if computed.Load() != 2 {
		t.Fatalf("computed %d times after Forget, want 2", computed.Load())
	}
}

func TestBatcherErrorsCachedUntilForget(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	var calls atomic.Int64
	fn := func() (int, error) { calls.Add(1); return 0, boom }

	if _, err, hit := g.Do("k", fn); !errors.Is(err, boom) || hit {
		t.Fatalf("first Do: err=%v hit=%v", err, hit)
	}
	if _, err, hit := g.Do("k", fn); !errors.Is(err, boom) || !hit {
		t.Fatalf("cached error Do: err=%v hit=%v, want cached boom", err, hit)
	}
	if _, ok := g.Peek("k"); ok {
		t.Fatal("Peek resurrected an error slot")
	}
	if calls.Load() != 1 {
		t.Fatalf("error recomputed: %d calls", calls.Load())
	}
	g.Forget("k")
	if _, err, hit := g.Do("k", fn); !errors.Is(err, boom) || hit {
		t.Fatalf("post-Forget Do: err=%v hit=%v, want fresh flight", err, hit)
	}
	if calls.Load() != 2 {
		t.Fatalf("Forget did not trigger recompute: %d calls", calls.Load())
	}
}

// TestBatcherTransientErrorsNotCached pins the overload-path guarantee
// under the Do-then-Forget idiom: a deadline error reaches the caller of
// the failed flight but leaves no slot behind, so the retry of the same
// key starts a fresh flight and succeeds.
func TestBatcherTransientErrorsNotCached(t *testing.T) {
	var g Group[int]
	var calls atomic.Int64
	fn := func(p int) func() (int, error) {
		return func() (int, error) {
			if calls.Add(1) == 1 {
				return 0, fmt.Errorf("reading store: %w", context.DeadlineExceeded)
			}
			return p, nil
		}
	}

	if _, err, _ := doThenForget(&g, "k", fn(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first Do err = %v, want DeadlineExceeded", err)
	}
	if g.Len() != 0 {
		t.Fatalf("Len = %d after a failed flight, want 0 (error not cached)", g.Len())
	}
	if v, err, hit := doThenForget(&g, "k", fn(2)); err != nil || v != 2 || hit {
		t.Fatalf("retry Do = (%d, %v, hit=%v), want fresh (2, nil, false)", v, err, hit)
	}
	if calls.Load() != 2 {
		t.Fatalf("fn ran %d times, want 2 (the retry recomputes)", calls.Load())
	}
}

// TestBatcherTransientErrorStress hammers the timeout/retry cycle: a
// computation that fails with a context error whenever an "overload"
// flag is set must never poison the key — after the storm no slot is
// left and every key computes afresh.
func TestBatcherTransientErrorStress(t *testing.T) {
	var g Group[int]
	var overloaded atomic.Bool
	fn := func(p int) func() (int, error) {
		return func() (int, error) {
			if overloaded.Load() {
				return 0, context.DeadlineExceeded
			}
			return p + 1, nil
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // flips overload on and off under the workers
		defer wg.Done()
		for i := 0; i < 100; i++ {
			overloaded.Store(i%2 == 0)
		}
		overloaded.Store(false)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%4)
				v, err, _ := doThenForget(&g, key, fn(i))
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("unexpected error: %v", err)
					return
				}
				if err == nil && v <= 0 {
					t.Errorf("Do returned zero-value success: %d", v)
					return
				}
			}
		}()
	}
	wg.Wait()

	if g.Len() != 0 {
		t.Fatalf("Len = %d after the storm, want 0 (no slot outlives its flight)", g.Len())
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		if v, err, hit := doThenForget(&g, key, fn(10+i)); err != nil || v != 11+i || hit {
			t.Fatalf("post-storm Do(%s) = (%d, %v, hit=%v), want fresh (%d, nil, false)", key, v, err, hit, 11+i)
		}
	}
}

func TestBatcherPeek(t *testing.T) {
	var g Group[int]
	if _, ok := g.Peek("k"); ok {
		t.Fatal("Peek fabricated a slot")
	}
	g.Do("k", func() (int, error) { return 1005, nil })
	if v, ok := g.Peek("k"); !ok || v != 1005 {
		t.Fatalf("Peek = (%d, %v), want (1005, true)", v, ok)
	}
	g.Forget("k")
	if _, ok := g.Peek("k"); ok {
		t.Fatal("Peek survived Forget")
	}
	if g.Len() != 0 {
		t.Fatalf("Len = %d after Forget, want 0", g.Len())
	}
}

// TestBatcherConcurrentStress hammers Do/Peek/Forget from many
// goroutines: the group must never deadlock, race, or deliver a value no
// computation produced.
func TestBatcherConcurrentStress(t *testing.T) {
	var g Group[int]
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%3)
				gen := w*1000 + i
				switch i % 3 {
				case 0:
					v, err, _ := g.Do(key, func() (int, error) { return gen, nil })
					if err != nil || v < 0 {
						t.Errorf("Do = (%d, %v)", v, err)
						return
					}
				case 1:
					if v, ok := g.Peek(key); ok && v < 0 {
						t.Errorf("Peek saw invalid value %d", v)
						return
					}
				case 2:
					g.Forget(key)
				}
			}
		}(w)
	}
	wg.Wait()
}
