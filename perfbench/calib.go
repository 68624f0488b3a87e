package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared, and the speed of its CPUs
// drifts: a fixed kernel took 10 to 17 ms of thread CPU time within
// seconds, and the CPU time of the same training moved by a quarter from
// one run to the next. So a sampler runs a short fixed kernel every few
// milliseconds through the whole run, on the CPUs the measured work
// uses, while it runs; each bounded time figure is multiplied by the
// kernel's CPU time on the reference host and divided by its median CPU
// time over the stage the figure was measured in. The figures then read
// as times on the reference host (the 2-vCPU VM the bounds were set on).
// The kernel is the benchmark's own code on the standard library, which
// no change to the program under test can speed up or slow down.

// refBurst is the CPU time of one burst on the reference host.
const refBurst = 1600 * time.Microsecond

// Burst size: a dense float product (the model fits), a chain of
// dependent loads over a ring larger than the caches (the pointer-heavy
// serving path), and a sort. samplePeriod is the pause between bursts:
// the sampler takes about 3% of one CPU, so a request seldom waits for a
// burst.
const (
	burstDim     = 32
	burstMats    = 8
	burstRing    = 1 << 20 // 4 MiB of uint32
	burstChase   = 4000
	burstSort    = 1 << 12
	samplePeriod = 50 * time.Millisecond
)

// burst holds the kernel's preallocated inputs, so it allocates nothing
// and its time does not depend on the heap the benchmark has live.
type burst struct {
	a, b, c []float64
	ring    []uint32
	keys    []uint64
	work    []uint64
	sink    uint64
}

func newBurst(seed int64) *burst {
	rng := rand.New(rand.NewSource(seed))
	k := &burst{
		a: make([]float64, burstDim*burstDim), b: make([]float64, burstDim*burstDim), c: make([]float64, burstDim*burstDim),
		ring: make([]uint32, burstRing), keys: make([]uint64, burstSort), work: make([]uint64, burstSort),
	}
	for i := range k.a {
		k.a[i], k.b[i] = rng.Float64(), rng.Float64()
	}
	// One cycle through every slot in random order (Sattolo's shuffle).
	perm := make([]uint32, burstRing)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := burstRing - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		k.ring[perm[i]] = perm[(i+1)%burstRing]
	}
	for i := range k.keys {
		k.keys[i] = rng.Uint64()
	}
	return k
}

// run does the kernel's fixed work once. The chase continues where the
// last burst stopped, so successive bursts walk the whole ring.
func (k *burst) run() {
	n := burstDim
	for r := 0; r < burstMats; r++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for x := 0; x < n; x++ {
					s += k.a[i*n+x] * k.b[x*n+j]
				}
				k.c[i*n+j] = s
			}
		}
		k.a, k.c = k.c, k.a
		for i := range k.a {
			k.a[i] *= 1.0 / float64(n)
		}
	}
	j := uint32(k.sink % burstRing)
	for i := 0; i < burstChase; i++ {
		j = k.ring[j]
	}
	copy(k.work, k.keys)
	slices.Sort(k.work)
	k.sink = uint64(j) + k.work[0] + uint64(k.a[0]*1e6)
}

// threadCPU is the calling OS thread's CPU time (CLOCK_THREAD_CPUTIME_ID,
// in nanoseconds; getrusage's per-thread figure counts scheduler ticks).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // a valid clock id and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

// sampler runs a burst every samplePeriod on its own OS thread and keeps
// every burst's CPU time.
type sampler struct {
	mu     sync.Mutex
	bursts []time.Duration
	// used is the sampler thread's CPU time so far, bursts and wake-ups,
	// so a stage can leave it out of the process's CPU time.
	used atomic.Int64
	pin  chan placement
	stop chan struct{}
	done chan struct{}
}

// startSampler builds the kernel's inputs and starts sampling.
func startSampler() *sampler {
	s := &sampler{pin: make(chan placement), stop: make(chan struct{}), done: make(chan struct{})}
	k := newBurst(1)
	ready := make(chan struct{})
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cpu0 := threadCPU()
		close(ready)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case m := <-s.pin:
				setAffinity(0, m.cpus)
				setIdle(m.idle)
				s.pin <- m
			case <-tick.C:
				t0 := threadCPU()
				k.run()
				t1 := threadCPU()
				s.mu.Lock()
				s.bursts = append(s.bursts, t1-t0)
				s.mu.Unlock()
				s.used.Store(int64(t1 - cpu0))
			}
		}
	}()
	<-ready
	return s
}

// Stop ends sampling and waits for the sampler to exit.
func (s *sampler) Stop() {
	close(s.stop)
	<-s.done
}

// placement is where the sampler runs: on which CPUs, and whether only
// when they would otherwise idle.
type placement struct {
	cpus cpuMask
	idle bool
}

// place moves the sampler's thread to p.
func (s *sampler) place(p placement) {
	s.pin <- p
	<-s.pin
}

// setIdle puts the calling thread in the SCHED_IDLE class, where it runs
// only when nothing else wants its CPU, or back in the normal class.
func setIdle(idle bool) error {
	const schedOther, schedIdle = 0, 5
	policy := schedOther
	if idle {
		policy = schedIdle
	}
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&param))); e != 0 {
		return e
	}
	return nil
}

// mark is the number of bursts so far: stages are delimited by marks.
func (s *sampler) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bursts)
}

// cpu is the sampler's own CPU time so far.
func (s *sampler) cpu() time.Duration { return time.Duration(s.used.Load()) }

// factor scales a time measured between marks from and to to the
// reference host: the reference burst time over the median burst.
func (s *sampler) factor(from, to int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := medianDur(s.bursts[from:to])
	if m == 0 {
		return 1 // no burst in the stage: nothing to scale by
	}
	return float64(refBurst) / float64(m)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
