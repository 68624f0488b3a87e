package flight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoComputesOnce(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	fn := func() (int, error) { calls.Add(1); return 42, nil }

	v, err, hit := g.Do("k", fn)
	if v != 42 || err != nil || hit {
		t.Fatalf("first Do = (%d, %v, hit=%v), want (42, nil, false)", v, err, hit)
	}
	v, err, hit = g.Do("k", fn)
	if v != 42 || err != nil || !hit {
		t.Fatalf("second Do = (%d, %v, hit=%v), want (42, nil, true)", v, err, hit)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
}

func TestDoConcurrentSharesOneFlight(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	const workers = 32
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := g.Do("k", func() (int, error) {
				calls.Add(1)
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times under contention, want 1", n)
	}
	for i, v := range results {
		if v != 7 {
			t.Fatalf("worker %d got %d, want 7", i, v)
		}
	}
}

func TestErrorsStayCachedUntilForget(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	calls := 0
	fn := func() (int, error) { calls++; return 0, boom }

	if _, err, _ := g.Do("k", fn); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if _, err, hit := g.Do("k", fn); !errors.Is(err, boom) || !hit {
		t.Fatalf("cached error lost: (%v, hit=%v)", err, hit)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1 (errors cache)", calls)
	}
	g.Forget("k")
	if _, err, hit := g.Do("k", fn); !errors.Is(err, boom) || hit {
		t.Fatalf("after Forget: (%v, hit=%v), want fresh boom", err, hit)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times after Forget, want 2", calls)
	}
}

// TestForgetDuringFlight pins the Forget contract the serving layer's
// Do-then-Forget coalescing relies on: a caller blocked on a computation
// still receives its result after the key is forgotten mid-flight, and
// the next Do is an independent flight.
func TestForgetDuringFlight(t *testing.T) {
	var g Group[int]
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int)
	go func() {
		v, err, _ := g.Do("k", func() (int, error) {
			close(entered)
			<-release
			return 42, nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	<-entered
	g.Forget("k")
	close(release)
	if v := <-done; v != 42 {
		t.Fatalf("in-flight caller got %d after Forget, want 42", v)
	}
	if v, err, hit := g.Do("k", func() (int, error) { return 43, nil }); v != 43 || err != nil || hit {
		t.Fatalf("post-Forget Do = (%d, %v, %v), want fresh (43, nil, false)", v, err, hit)
	}
}

func TestReplaceInstallsWithoutRunning(t *testing.T) {
	var g Group[string]
	g.Replace("k", "swapped")
	v, err, hit := g.Do("k", func() (string, error) {
		t.Fatal("fn ran despite Replace")
		return "", nil
	})
	if v != "swapped" || err != nil || !hit {
		t.Fatalf("got (%q, %v, hit=%v), want (swapped, nil, true)", v, err, hit)
	}

	// Replace also overwrites an existing completed slot.
	g.Replace("k", "swapped2")
	v, _, _ = g.Do("k", func() (string, error) { return "", nil })
	if v != "swapped2" {
		t.Fatalf("got %q after second Replace, want swapped2", v)
	}
}

func TestPeekSemantics(t *testing.T) {
	var g Group[int]
	// No slot.
	if _, ok := g.Peek("k"); ok {
		t.Fatal("Peek invented a value")
	}
	// In-flight computation: Peek must not block or observe a partial
	// result.
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Do("k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started
	if _, ok := g.Peek("k"); ok {
		t.Fatal("Peek returned an in-flight slot")
	}
	close(release)
	<-done
	if v, ok := g.Peek("k"); !ok || v != 42 {
		t.Fatalf("Peek after completion = (%d, %v), want (42, true)", v, ok)
	}
	// Cached errors stay invisible to Peek.
	g.Do("bad", func() (int, error) { return 0, errors.New("boom") })
	if _, ok := g.Peek("bad"); ok {
		t.Fatal("Peek resurrected a cached error")
	}
	// Replace is immediately visible.
	g.Replace("r", 7)
	if v, ok := g.Peek("r"); !ok || v != 7 {
		t.Fatalf("Peek after Replace = (%d, %v)", v, ok)
	}
	// Forget removes the slot from Peek's view.
	g.Forget("k")
	if _, ok := g.Peek("k"); ok {
		t.Fatal("Peek survived Forget")
	}
}

// TestConcurrentForgetPeekDo hammers the full surface concurrently: the
// promote path (Replace+Forget) racing readers (Do+Peek) must never
// yield a stale or partial value. The race detector plus the value
// invariant (only generations ever installed) are the assertions.
func TestConcurrentForgetPeekDo(t *testing.T) {
	var g Group[int]
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				gen := w*1000 + i
				switch i % 4 {
				case 0:
					v, err, _ := g.Do("k", func() (int, error) { return gen, nil })
					if err != nil || v < 0 {
						t.Errorf("Do = (%d, %v)", v, err)
						return
					}
				case 1:
					if v, ok := g.Peek("k"); ok && v < 0 {
						t.Errorf("Peek saw invalid value %d", v)
						return
					}
				case 2:
					g.Replace("k", gen)
				case 3:
					g.Forget("k")
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestKeysAndLen(t *testing.T) {
	var g Group[int]
	if g.Len() != 0 || len(g.Keys()) != 0 {
		t.Fatal("zero group not empty")
	}
	g.Do("a", func() (int, error) { return 1, nil })
	g.Replace("b", 2)
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	seen := map[string]bool{}
	for _, k := range g.Keys() {
		seen[k] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("Keys = %v, want a and b", g.Keys())
	}
}
