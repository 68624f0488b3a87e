package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Arrivals returns n seeded Poisson arrival offsets at the given mean
// rate (requests per second): exponential inter-arrival gaps, so the same
// seed always yields the same schedule.
func Arrivals(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// ArrivalsFor returns the seeded Poisson schedule covering d at rate.
func ArrivalsFor(seed int64, rate float64, d time.Duration) []time.Duration {
	n := int(math.Ceil(rate * d.Seconds()))
	if n < 1 {
		n = 1
	}
	return Arrivals(seed, rate, n)
}

// Op performs schedule entry i. A non-nil error counts the operation as
// failed.
type Op func(i int) error

// Step is the outcome of one open-loop run at a fixed offered rate.
type Step struct {
	Achieved  float64 // completed operations per second of wall time
	Attempted int
	Failed    int
	// Latency of each successful operation, counted from its due time
	// when it had to wait for a free worker (open loop: a stall counts
	// against everything queued behind it).
	Latency []time.Duration
	// Late is how far behind schedule each operation was sent.
	Late []time.Duration
	Errs []error
}

// RunOpenLoop sends the scheduled operations from `conns` workers, each
// owning one connection. A worker claims the next entry in schedule
// order as soon as it is free, sleeps until the entry is due, and runs
// it. An entry due while every worker is busy waits for one, and that
// wait is the system's doing: its latency counts from the due time. An
// entry whose worker was already free has no such wait; the sleep's
// overshoot is the generator's own error, so its latency counts from
// the send. Both kinds of lateness are recorded in Late.
func RunOpenLoop(due []time.Duration, conns int, op Op) Step {
	n := len(due)
	from := make([]time.Duration, n)
	sent := make([]time.Duration, n)
	done := make([]time.Duration, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				from[i] = due[i]
				wait := due[i] - time.Since(start)
				if wait > 0 {
					sleepPrecise(wait)
				}
				sent[i] = time.Since(start)
				if wait > 0 {
					from[i] = sent[i]
				}
				errs[i] = op(i)
				done[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := Step{Attempted: n, Achieved: float64(n) / elapsed.Seconds()}
	st.Late = make([]time.Duration, n)
	for i := range due {
		st.Late[i] = sent[i] - due[i]
		if errs[i] != nil {
			st.Failed++
			st.Errs = append(st.Errs, errs[i])
			continue
		}
		st.Latency = append(st.Latency, done[i]-from[i])
	}
	return st
}

// sleepPrecise blocks the calling thread in nanosleep. time.Sleep is not
// used because an idle Go runtime waits for timers in epoll with
// millisecond resolution, which made an idle generator send ~0.75 ms
// late on average — ten times a plan-cache hit.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// Percentile returns the q-quantile (0<q<1) of xs by the nearest-rank
// method, and whether the sample supports it: at least ten samples must
// lie beyond it, so a p99 needs 1000 samples and a p95 200.
func Percentile(xs []time.Duration, q float64) (time.Duration, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= 10
}

// Mean returns the arithmetic mean of xs (0 for none).
func Mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}
