package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// stopwatch times an interval in wall-clock time and in the CPU time
// the whole process (client, daemon, analysis workers, collector) used.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

func (w stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(w.wall), processCPU() - w.cpu
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampleEvery is the resident-memory sampling period.
const memSampleEvery = 5 * time.Millisecond

// memSampler tracks the process's peak resident memory: the memory the
// Go runtime has mapped and not returned to the OS, sampled every
// memSampleEvery by one goroutine.
type memSampler struct {
	peak atomic.Uint64 // bytes, since the last takePeak
	quit chan struct{}
	wg   sync.WaitGroup
}

func startMemSampler() *memSampler {
	m := &memSampler{quit: make(chan struct{})}
	m.sample()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

var memSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func (m *memSampler) sample() {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	rss := s[0].Value.Uint64() - s[1].Value.Uint64()
	for {
		old := m.peak.Load()
		if rss <= old || m.peak.CompareAndSwap(old, rss) {
			return
		}
	}
}

// takePeak returns the peak in MB since the previous call and restarts
// the tracking from the current level.
func (m *memSampler) takePeak() float64 {
	m.sample()
	p := m.peak.Swap(0)
	m.sample()
	return float64(p) / (1 << 20)
}

// stop ends the sampling goroutine and waits for it.
func (m *memSampler) stop() {
	close(m.quit)
	m.wg.Wait()
}
