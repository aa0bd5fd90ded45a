package main

import (
	"runtime"
	"sync"
	"time"

	"github.com/agardist/agar/internal/cache"
)

// cacheSince is the node cache's own accounting between two snapshots.
func cacheSince(end, start cache.Stats) cache.Stats {
	return cache.Stats{
		Gets: end.Gets - start.Gets, Hits: end.Hits - start.Hits, Sets: end.Sets - start.Sets,
		Evictions: end.Evictions - start.Evictions, AdmissionRejects: end.AdmissionRejects - start.AdmissionRejects,
		FullRejects: end.FullRejects - start.FullRejects,
	}
}

// sampled holds what the sampler saw during a window: the maxima of the
// polled gauges, and one tick per cpuSlice with the CPU the process used and
// the operations it completed in it.
type sampled struct {
	queueDepthMax    int64
	populateDepthMax int
	goroutinesMax    int
	ticks            []tick
}

type tick struct {
	cpuMS float64
	ops   int64
}

// sampler polls the gauges that only have instantaneous values (the cache
// server's dispatch queue depth, the lanes' population queues, the goroutine
// count) and, once per cpuSlice, the process's CPU time and completed
// operations.
type sampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	max    sampled
}

const samplePeriod = 5 * time.Millisecond

func startSampler(g *rig) *sampler {
	s := &sampler{stopCh: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ticker := time.NewTicker(samplePeriod)
		defer ticker.Stop()
		sliceEnd := time.Now().Add(cpuSlice)
		cpu0, ops0 := cpuTime(), g.completed.Load()
		closeTick := func() {
			cpu1, ops1 := cpuTime(), g.completed.Load()
			s.max.ticks = append(s.max.ticks, tick{cpuMS: float64(cpu1-cpu0) / float64(time.Millisecond), ops: ops1 - ops0})
			cpu0, ops0 = cpu1, ops1
		}
		for {
			select {
			case <-s.stopCh:
				if len(s.max.ticks) == 0 { // a window shorter than one cpuSlice (-smoke)
					closeTick()
				}
				return
			case now := <-ticker.C:
				if !now.Before(sliceEnd) {
					closeTick()
					sliceEnd = sliceEnd.Add(cpuSlice)
				}
				s.max.queueDepthMax = max(s.max.queueDepthMax, g.cluster.CacheQueueDepth())
				depth := 0
				for _, ln := range g.lanes {
					d, _ := ln.reader.PopulationBackPressure()
					depth += d
				}
				s.max.populateDepthMax = max(s.max.populateDepthMax, depth)
				s.max.goroutinesMax = max(s.max.goroutinesMax, runtime.NumGoroutine())
			}
		}
	}()
	return s
}

func (s *sampler) stop() sampled {
	close(s.stopCh)
	s.wg.Wait()
	return s.max
}
