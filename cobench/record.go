package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// base anchors every timestamp the benchmark takes: nanoseconds on the
// monotonic clock since process start, so stamps fit an atomic.Int64 and
// zero can mean "not yet".
var base = time.Now()

func now() int64 { return int64(time.Since(base)) + 1 }

// eventKind classifies what one ledger event is.
type eventKind uint8

const (
	evEdit    eventKind = iota // host DOM edit issued by the load generator
	evNav                      // host navigation issued by the load generator
	evSubmit                   // typist form submit (merges into the host DOM)
	evPointer                  // typist pointer move (mirrored, no host change)
)

// Arrival slot states besides a positive arrival stamp.
const (
	pending     = 0
	notExpected = -1
)

// event is one scheduled operation and its delivery record: when it was due
// on the open-loop schedule, when the host document took the change, and,
// per participant slot, when that participant first held it.
type event struct {
	kind   eventKind
	seq    int    // index within its table: the marker participants read
	typist int    // firing typist's slot; -1 for host changes
	text   string // evNav: the destination site; evSubmit: the seeded word
	due    int64
	change atomic.Int64 // when the host document took the change
	// decided is when the agent's policy saw the action (typist actions).
	decided atomic.Int64
	// spanned marks a merged submit whose host mutation span was recorded.
	spanned  atomic.Bool
	arrivals []atomic.Int64
}

// arrive stamps slot's first sight of the event; later sightings and
// slots the event never expected are ignored.
func (e *event) arrive(slot int, t int64) {
	if slot < len(e.arrivals) {
		e.arrivals[slot].CompareAndSwap(pending, t)
	}
}

// table is an append-only event list with one writer (the load generator) and any
// number of concurrent readers: the backing array never moves and the
// published length orders each slot's write before its reads.
type table struct {
	ev []*event
	n  atomic.Int64
}

func newTable(capacity int) *table { return &table{ev: make([]*event, capacity)} }

func (t *table) add(e *event) bool {
	i := t.n.Load()
	if int(i) >= len(t.ev) {
		return false
	}
	e.seq = int(i)
	t.ev[i] = e
	t.n.Store(i + 1)
	return true
}

func (t *table) len() int { return int(t.n.Load()) }

func (t *table) get(i int) *event {
	if i < 0 || i >= t.len() {
		return nil
	}
	return t.ev[i]
}

func (t *table) all() []*event { return t.ev[:t.len()] }

// dist is a sample of durations in nanoseconds.
type dist []int64

// quantile returns the q-quantile (nearest rank) or NaN when empty.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := append(dist(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i])
}

func (d dist) ms(q float64) float64 { return d.quantile(q) / 1e6 }
func (d dist) us(q float64) float64 { return d.quantile(q) / 1e3 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// subWindow is the slice of a window each latency percentile is taken over;
// a metric reports the median of its sub-windows' percentiles, so a few
// seconds of host contention move one sub-window, not the run's figure.
const subWindow = 5 * time.Second

// series holds latency samples bucketed by sub-window (or by set-up, for
// set-up joins).
type series map[int]dist

func (s series) add(bucket int, v int64) { s[bucket] = append(s[bucket], v) }

// q returns the median over buckets of each bucket's q-quantile; NaN when
// there are no samples.
func (s series) q(q float64) float64 {
	var per []float64
	for _, d := range s {
		per = append(per, d.quantile(q))
	}
	return median(per)
}

func (s series) ms(q float64) float64 { return s.q(q) / 1e6 }

// all flattens the buckets into one sample.
func (s series) all() dist {
	var out dist
	for _, d := range s {
		out = append(out, d...)
	}
	return out
}
