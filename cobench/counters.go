package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"rcb/internal/core"
)

// counters is a snapshot of every cumulative count the metrics difference
// across a window: process CPU, the participant links, the agent's getters,
// the fleet's snippet stats, the traced handler's tallies and the Go
// runtime's.
type counters struct {
	cpu                                  time.Duration
	wireUp, wireDown, conns              int64
	builds, diffs, wakes, framesOut      int64
	parkRefusals, joinRefusals           int64
	staleKicks, chanFallbacks, dupAction int64
	snip                                 core.SnippetStats
	polls, emptyPolls, requests, respB   int64
	allocBytes, allocObjs                float64
	gcCPU, totalCPU                      float64
	sched                                []uint64
	schedBuckets                         []float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readCounters(s *session) counters {
	var c counters
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.wireUp, c.wireDown, c.conns = s.wireUp.Load(), s.wireDown.Load(), s.connsOpened.Load()
	a := s.agent
	c.builds, c.diffs, c.wakes, c.framesOut = a.ContentBuilds(), a.DiffBuilds(), a.WakeFanouts(), a.FramesOut()
	c.parkRefusals, c.joinRefusals = a.ParkRefusals(), a.JoinRefusals()
	c.staleKicks, c.chanFallbacks, c.dupAction = a.StaleKicks(), a.ChannelFallbacks(), a.DuplicateActions()
	for _, p := range s.participants() {
		st := p.snip.Stats()
		if p.left.Load() {
			// A departed participant's last poll fails with its LEAVE close
			// by design; that is not a poll failure of the session.
			st.PollFailures = 0
		}
		c.snip.Polls += st.Polls
		c.snip.EmptyPolls += st.EmptyPolls
		c.snip.ContentPolls += st.ContentPolls
		c.snip.DeltaPolls += st.DeltaPolls
		c.snip.DeltaFailures += st.DeltaFailures
		c.snip.PollFailures += st.PollFailures
		c.snip.Rejoins += st.Rejoins
		c.snip.DuplexFallbacks += st.DuplexFallbacks
		c.snip.ActionFallbacks += st.ActionFallbacks
		c.snip.ObjectFetches += st.ObjectFetches
		c.snip.ObjectsFromAgent += st.ObjectsFromAgent
	}
	if tr := s.tr; tr != nil {
		c.polls, c.emptyPolls = tr.polls.Load(), tr.emptyPolls.Load()
		c.requests, c.respB = tr.requestsServed.Load(), tr.respBytes.Load()
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	c.allocBytes = float64(samples[0].Value.Uint64())
	c.allocObjs = float64(samples[1].Value.Uint64())
	c.gcCPU = samples[2].Value.Float64()
	c.totalCPU = samples[3].Value.Float64()
	h := samples[4].Value.Float64Histogram()
	c.sched = append([]uint64(nil), h.Counts...)
	c.schedBuckets = h.Buckets
	return c
}

// sub returns the window's difference c − pre.
func (c counters) sub(pre counters) counters {
	d := counters{
		cpu:    c.cpu - pre.cpu,
		wireUp: c.wireUp - pre.wireUp, wireDown: c.wireDown - pre.wireDown, conns: c.conns - pre.conns,
		builds: c.builds - pre.builds, diffs: c.diffs - pre.diffs, wakes: c.wakes - pre.wakes,
		framesOut:    c.framesOut - pre.framesOut,
		parkRefusals: c.parkRefusals - pre.parkRefusals, joinRefusals: c.joinRefusals - pre.joinRefusals,
		staleKicks: c.staleKicks - pre.staleKicks, chanFallbacks: c.chanFallbacks - pre.chanFallbacks,
		dupAction: c.dupAction - pre.dupAction,
		polls:     c.polls - pre.polls, emptyPolls: c.emptyPolls - pre.emptyPolls,
		requests: c.requests - pre.requests, respB: c.respB - pre.respB,
		allocBytes: c.allocBytes - pre.allocBytes, allocObjs: c.allocObjs - pre.allocObjs,
		gcCPU: c.gcCPU - pre.gcCPU, totalCPU: c.totalCPU - pre.totalCPU,
		schedBuckets: c.schedBuckets,
	}
	d.snip = core.SnippetStats{
		Polls:            c.snip.Polls - pre.snip.Polls,
		EmptyPolls:       c.snip.EmptyPolls - pre.snip.EmptyPolls,
		ContentPolls:     c.snip.ContentPolls - pre.snip.ContentPolls,
		DeltaPolls:       c.snip.DeltaPolls - pre.snip.DeltaPolls,
		DeltaFailures:    c.snip.DeltaFailures - pre.snip.DeltaFailures,
		PollFailures:     c.snip.PollFailures - pre.snip.PollFailures,
		Rejoins:          c.snip.Rejoins - pre.snip.Rejoins,
		DuplexFallbacks:  c.snip.DuplexFallbacks - pre.snip.DuplexFallbacks,
		ActionFallbacks:  c.snip.ActionFallbacks - pre.snip.ActionFallbacks,
		ObjectFetches:    c.snip.ObjectFetches - pre.snip.ObjectFetches,
		ObjectsFromAgent: c.snip.ObjectsFromAgent - pre.snip.ObjectsFromAgent,
	}
	d.sched = make([]uint64, len(c.sched))
	for i := range c.sched {
		d.sched[i] = c.sched[i]
		if i < len(pre.sched) {
			d.sched[i] -= pre.sched[i]
		}
	}
	return d
}

// schedQuantile reads the q-quantile of the scheduling latency histogram
// difference, as the upper edge of the bucket holding it.
func (c counters) schedQuantile(q float64) float64 {
	var total uint64
	for _, n := range c.sched {
		total += n
	}
	if total == 0 {
		return math.NaN()
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, n := range c.sched {
		cum += n
		if cum >= want {
			edge := c.schedBuckets[i+1]
			if math.IsInf(edge, 1) {
				edge = c.schedBuckets[i]
			}
			return edge
		}
	}
	return math.NaN()
}

// heapSampler records the live heap the garbage collector measured at each
// cycle of the window; their median is the session's resident state while
// it runs, rather than whatever the last change happened to leave behind.
type heapSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		last := s[0].Value.Uint64()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				h.samples = append(h.samples, float64(s[1].Value.Uint64()))
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the median live heap in bytes,
// forcing one collection when the window saw none.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	if len(h.samples) == 0 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
	return median(h.samples)
}
