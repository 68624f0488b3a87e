package main

import (
	"bytes"
	"os/exec"
	"runtime"
	"strconv"
	"testing"
	"time"
)

func TestSamplerScalesByTheStagesMedianBurst(t *testing.T) {
	s := startSampler()
	st := s.begin()
	time.Sleep(8 * samplePeriod)
	s.Stop()
	used := st.end()
	bursts := s.bursts[st.from:]
	if len(bursts) < 3 {
		t.Fatalf("%d bursts in %v, want at least 3", len(bursts), 8*samplePeriod)
	}
	if used <= 0 {
		t.Fatalf("sampler CPU time %v, want > 0", used)
	}
	if want := float64(refBurst) / float64(medianDur(bursts)); st.f != want {
		t.Fatalf("factor %v, want reference over median burst %v", st.f, want)
	}
}

func TestServingCPUsPinAndRestore(t *testing.T) {
	srv, gen, ok := servingCPUs()
	if !ok {
		t.Skip("needs two CPUs")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before, err := getAffinity(0)
	if err != nil {
		t.Fatal(err)
	}
	restore, err := pinProcess(gen)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := getAffinity(0); got != gen {
		t.Errorf("thread mask %x after pinProcess, want %x", got, gen)
	}
	// A child started pinned gets the server's CPU and only it.
	cmd := exec.Command("grep", "Cpus_allowed_list", "/proc/self/status")
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := startPinned(srv, cmd.Start); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	last := 0
	for c := 0; c < 64*len(srv); c++ {
		if srv[c/64]&(1<<(c%64)) != 0 {
			last = c
		}
	}
	want := "Cpus_allowed_list:\t" + strconv.Itoa(last)
	if got := string(bytes.TrimSpace(out.Bytes())); got != want {
		t.Errorf("child %q, want %q", got, want)
	}
	if got, _ := getAffinity(0); got != gen {
		t.Errorf("startPinned left the thread mask at %x, want %x", got, gen)
	}
	restore()
	if got, _ := getAffinity(0); got != before {
		t.Errorf("thread mask %x after restore, want %x", got, before)
	}
}
