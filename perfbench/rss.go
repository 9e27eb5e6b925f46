package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// statusMiB reads one kB field of /proc/self/status (VmRSS, VmHWM) in
// MiB.
func statusMiB(field string) (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024, true
			}
		}
	}
	return 0, false
}

// rssSampler records the resident set size at a fixed interval until
// stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []float64
}

func startRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v, ok := statusMiB("VmRSS"); ok {
					s.mu.Lock()
					s.samples = append(s.samples, v)
					s.mu.Unlock()
				}
			}
		}
	}()
	return s
}

// finish stops sampling, waits for the sampler to exit and returns the
// samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}
