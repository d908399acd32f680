package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tbwf/internal/serve"
)

// snap is the process state, and the service's when there is one, at
// one instant.
type snap struct {
	at             time.Time
	cpu            time.Duration // process user+system CPU
	mallocs, bytes uint64
	gcCPU, allCPU  float64 // runtime/metrics CPU seconds
	rep            serve.MetricsReport
}

func takeSnap(h *host) (snap, error) {
	s := snap{at: time.Now(), cpu: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.bytes = ms.Mallocs, ms.TotalAlloc
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	s.gcCPU, s.allCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	if h == nil {
		return s, nil
	}
	var err error
	s.rep, err = h.report()
	return s, err
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler samples the process's resident set until finished.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
}

// rssEvery is the resident-set sampling period.
const rssEvery = 50 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			s.samples = append(s.samples, residentMiB())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the mean resident set, in MiB.
// The mean, not the median or the peak: the resident set moves in steps
// as the GC's heap goal moves, and the mean integrates over the steps.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	total := 0.0
	for _, v := range s.samples {
		total += v
	}
	return total / float64(len(s.samples))
}

// residentMiB reads the current resident set from /proc/self/statm.
func residentMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
