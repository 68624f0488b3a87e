package main

import (
	"errors"
	"os"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// The serving stage gives the server and the load generator a CPU each.
// Left to the scheduler, the two processes' threads (the server's Go
// runtime runs one per CPU, the generator's too) migrated between the
// two vCPUs and woke each other across them, and the server's CPU time
// per request moved with where its threads happened to land, not with
// the work it did. Pinned, each has its CPU to itself: the server starts
// with an affinity of one CPU, so its Go runtime runs with GOMAXPROCS 1,
// a one-CPU deployment of the default flags.

// cpuMask is a sched_setaffinity CPU set for up to 1024 CPUs.
type cpuMask [16]uint64

func maskOf(cpus ...int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// servingCPUs splits the CPUs this process may use: the last one for
// the server, the rest for the generator. ok is false with fewer than
// two, and then nothing is pinned. The generator keeps its GOMAXPROCS:
// its workers block their threads in nanosleep, and with one P each such
// sleep waited for the runtime to hand the P on, which made it send tens
// of milliseconds late.
func servingCPUs() (server cpuMask, generator cpuMask, ok bool) {
	generator = allCPUs()
	last := -1
	for c := 0; c < len(generator)*64; c++ {
		if generator[c/64]&(1<<(c%64)) != 0 {
			last = c
		}
	}
	if last < 0 || generator == maskOf(last) {
		return server, generator, false
	}
	generator[last/64] &^= 1 << (last % 64)
	return maskOf(last), generator, true
}

// allCPUs is the set of CPUs the process started with.
func allCPUs() cpuMask {
	startMaskOnce.Do(func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		startMask, _ = getAffinity(0)
	})
	return startMask
}

var (
	startMaskOnce sync.Once
	startMask     cpuMask
)

// pinProcess restricts every thread of this process to m and returns a
// function that restores the mask each had. Threads the runtime starts
// later inherit the mask of the thread that starts them.
func pinProcess(m cpuMask) (restore func(), err error) {
	old := map[int]cpuMask{}
	restore = func() {
		for tid, om := range old {
			setAffinity(tid, om)
		}
	}
	// Twice: a thread started during the first pass by one not yet
	// pinned is caught by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			restore()
			return nil, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, seen := old[tid]; !seen {
				om, err := getAffinity(tid)
				if errors.Is(err, syscall.ESRCH) {
					continue // the thread exited since the listing
				}
				if err != nil {
					restore()
					return nil, err
				}
				old[tid] = om
			}
			if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
				restore()
				return nil, err
			}
		}
	}
	return restore, nil
}

// startPinned runs start, which forks a child, on an OS thread whose
// affinity is m for the duration: the child inherits it.
func startPinned(m cpuMask, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity(0)
	if err != nil {
		return err
	}
	if err := setAffinity(0, m); err != nil {
		return err
	}
	err = start()
	if rerr := setAffinity(0, old); err == nil {
		err = rerr
	}
	return err
}
