// Command cobench is the repository's end-to-end benchmark: a live RCB
// agent and a fleet of real participant snippets in one process, talking
// over loopback TCP, driven open-loop through one of three workloads.
//
//	cobench -workload edit-fanout -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics a participant feels; with
// -trace 1 it runs the same session once untraced and once traced and prints
// the per-layer metrics, writing the spans under -out. The last line of
// standard output is the JSON result; the line before it records the
// environment and agent configuration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// fleet and setups override the workload's fleet size and the number of
	// set-ups timed per run (the self-test's tiny smoke runs).
	fleet, setups int
	// tamper alters one participant's document before the audit.
	tamper bool
}

// defaultSetups is how many times an untraced run sets the session up; the
// median is setup_s and every set-up contributes join samples.
const defaultSetups = 8

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	violations []string
	env        map[string]any
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "edit-fanout", "workload: edit-fanout, navigate-join or action-mirror")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for result and trace files")
	flag.Parse()
	o.trace = trace == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cobench:", err)
		os.Exit(1)
	}
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "cobench: audit:", v)
	}
	if err := writeResult(o, res); err != nil {
		fmt.Fprintln(os.Stderr, "cobench:", err)
	}
	env, _ := json.Marshal(res.env)
	fmt.Printf("env %s\n", env)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func writeResult(o options, res *result) error {
	path := filepath.Join(o.out, "results", fmt.Sprintf("%s-seed%d-trace%v.json", o.workload, o.seed, o.trace))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{"env": res.env, "result": res, "violations": res.violations}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// plan is one run's generated inputs.
type plan struct {
	w      workload
	seed   int64
	window time.Duration
	walk   []string
	sched  []tick
	sizes  sizes
}

func newPlan(w workload, seed int64, window time.Duration) plan {
	navs := int(window.Seconds()*w.navHz*1.5) + 2
	p := plan{w: w, seed: seed, window: window, walk: siteWalk(seed, w.site, navs+1)}
	p.sched = schedule(w, seed, window, p.walk)
	p.sizes.slots = w.fleet
	for _, tk := range p.sched {
		switch tk.kind {
		case tickBurst:
			p.sizes.edits += len(tk.edits)
		case tickNav:
			p.sizes.navs++
			if w.churn {
				p.sizes.slots++
			}
		case tickAction:
			p.sizes.actions++
		}
	}
	return p
}

// setUp builds a session and joins its fleet; the returned duration is the
// set-up time from the first line of set-up to a steady, synced fleet.
func setUp(p plan, tr *tracer) (*session, time.Duration, error) {
	start := time.Now()
	s, err := newSession(p.w, p.seed, tr, p.w.site, p.sizes)
	if err != nil {
		return nil, 0, err
	}
	if err := s.setupFleet(); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// measurement is what one measured window produced.
type measurement struct {
	dr                      driveResult
	pre, post               counters
	heapLive                float64
	sync, syncLP, syncDX    series
	fleetSync, fleetMirror  series
	merge, mirror           series
	attempted, failed       int64
	joinsBefore, joinsAfter int
	viols                   []string
}

// measure drives the plan's window on a steady session, drains, audits and
// collects the raw samples.
func measure(s *session, p plan, tamper bool) (*measurement, error) {
	var hp *hostPage
	if p.w.editHz > 0 {
		shape, page, err := s.pageShape()
		if err != nil {
			return nil, err
		}
		hp = page
		fillEdits(p.sched, p.seed, shape)
	}
	m := &measurement{sync: series{}, syncLP: series{}, syncDX: series{},
		fleetSync: series{}, fleetMirror: series{}, merge: series{}, mirror: series{}}
	s.joinMu.Lock()
	m.joinsBefore = len(s.joins)
	s.joinMu.Unlock()
	m.pre = readCounters(s)
	heap := startHeapSampler()
	dr, err := s.drive(p.sched, hp)
	if err != nil {
		heap.finish()
		return nil, err
	}
	m.dr = dr
	s.drain(10 * time.Second)
	m.post = readCounters(s)
	m.heapLive = heap.finish()
	s.joinMu.Lock()
	m.joinsAfter = len(s.joins)
	s.joinMu.Unlock()
	m.collect(s)
	m.viols = s.audit(tamper)
	return m, nil
}

// collect turns the ledger into latency samples and operation counts.
func (m *measurement) collect(s *session) {
	syncTable := s.edits
	switch s.w.syncKind {
	case evNav:
		syncTable = s.navs
	case evSubmit:
		syncTable = s.actions
	}
	parts := s.participants()
	for _, t := range []*table{s.edits, s.navs, s.actions} {
		for _, e := range t.all() {
			b := int((e.due - m.dr.start) / int64(subWindow))
			isSync := t == syncTable && e.kind == s.w.syncKind
			isAction := t == s.actions
			from := e.change.Load()
			var last, lastMirror int64
			complete := true
			for i := range e.arrivals {
				v := e.arrivals[i].Load()
				if v == notExpected {
					continue
				}
				m.attempted++
				if v == pending {
					m.failed++
					complete = false
					continue
				}
				if isAction {
					m.mirror.add(b, v-e.due)
					lastMirror = max(lastMirror, v-e.due)
				}
				if isSync && from > 0 {
					d := max(v-from, 0)
					m.sync.add(b, d)
					if parts[i].duplex {
						m.syncDX.add(b, d)
					} else {
						m.syncLP.add(b, d)
					}
					last = max(last, d)
				}
			}
			if isSync && complete && last > 0 {
				m.fleetSync.add(b, last)
			}
			if isAction && complete && lastMirror > 0 {
				m.fleetMirror.add(b, lastMirror)
			}
			if isAction {
				m.attempted++
				if s.policy.counts[e.seq].Load() != 1 {
					m.failed++
				}
				if e.kind == evSubmit {
					if c := e.change.Load(); c > 0 {
						m.merge.add(b, max(c-e.due, 0))
					}
				}
			}
		}
	}
	joins := int64(m.joinsAfter - m.joinsBefore)
	m.attempted += joins + s.joinFails.Load()
	m.failed += s.joinFails.Load()
	d := m.post.sub(m.pre)
	m.attempted += d.snip.Polls
	m.failed += s.pollErrs.Load() + d.parkRefusals + d.joinRefusals
	// An object fetch that had to leave the agent failed: count it as one
	// more attempted and failed operation.
	m.attempted += s.foreignDials.Load()
	m.failed += s.foreignDials.Load() + s.actionErrs.Load()
}

func run(o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.fleet > 0 {
		w.fleet = o.fleet
	}
	setups := defaultSetups
	if o.setups > 0 {
		setups = o.setups
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if window <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	res := &result{Correct: true, Metrics: make(map[string]metric), env: environment(o, w)}
	if o.trace {
		return res, runTraced(o, w, window, res)
	}

	p := newPlan(w, o.seed, window)
	var setupTimes []float64
	joins := series{}
	var s *session
	for i := 0; i < setups; i++ {
		var d time.Duration
		var err error
		// Every set-up starts from the heap a fresh process has: the torn-down
		// session before it is garbage the program under test does not own,
		// and whether the collector is busy with it during the joins would
		// otherwise set the join tail.
		runtime.GC()
		s, d, err = setUp(p, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		if !w.churn {
			joins[i] = s.joins
		}
		if i < setups-1 {
			s.close()
		}
	}
	m, err := measure(s, p, o.tamper)
	s.close()
	if err != nil {
		return nil, err
	}
	if w.churn {
		for j := m.joinsBefore; j < m.joinsAfter; j++ {
			joins.add(int((s.joinAt[j]-m.dr.start)/int64(subWindow)), s.joins[j])
		}
	}
	res.Attempted, res.Failed = m.attempted, m.failed
	res.violations = m.viols
	ops := float64(m.dr.ops)
	d := m.post.sub(m.pre)
	add := func(name, unit string, v float64) { res.set(name, unit, v) }
	add("setup_s", "s", median(setupTimes))
	add("sync_p50_ms", "ms", m.sync.ms(0.50))
	add("fleet_sync_p50_ms", "ms", m.fleetSync.ms(0.50))
	add("longpoll_sync_p50_ms", "ms", m.syncLP.ms(0.50))
	add("duplex_sync_p50_ms", "ms", m.syncDX.ms(0.50))
	add("action_merge_p50_ms", "ms", m.merge.ms(0.50))
	add("action_mirror_p50_ms", "ms", m.mirror.ms(0.50))
	add("fleet_mirror_p50_ms", "ms", m.fleetMirror.ms(0.50))
	add("join_p50_ms", "ms", joins.ms(0.50))
	add("wire_kb_per_change", "KB", float64(d.wireUp+d.wireDown)/1024/float64(w.fleet)/ops)
	add("cpu_ms_per_change", "ms", d.cpu.Seconds()*1e3/ops)
	add("heap_live_mb", "MB", m.heapLive/(1<<20))
	res.env["samples"] = map[string]int{"sync": len(m.sync.all()), "fleet_sync": len(m.fleetSync.all()),
		"merge": len(m.merge.all()), "mirror": len(m.mirror.all()), "join": len(joins.all()), "ops": m.dr.ops, "setups": setups}
	res.env["failed_frac"] = ratio(float64(m.failed), float64(m.attempted))
	res.env["origin_dials"] = s.foreignDials.Load()
	res.env["stale_doctimes"] = s.staleDocTimes.Load()
	res.env["setup_times"] = setupTimes
	qs := func(s series) []float64 {
		d := s.all()
		return []float64{d.ms(0.5), d.ms(0.75), d.ms(0.9), d.ms(0.95), d.ms(0.99)}
	}
	res.env["quantiles_ms"] = map[string][]float64{"sync": qs(m.sync), "mirror": qs(m.mirror), "merge": qs(m.merge),
		"join": qs(joins), "fleet_sync": qs(m.fleetSync), "fleet_mirror": qs(m.fleetMirror)}
	res.finish()
	return res, nil
}

// set records a metric; a metric without samples is an audit failure, not
// a number.
func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.violations = append(r.violations, fmt.Sprintf("metric %s has no samples", name))
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) finish() {
	if len(r.violations) > 0 {
		r.Correct = false
	}
}

func environment(o options, w workload) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"transport":  "loopback TCP (participants to agent); netsim (host to Table 1 origins)",
		"fleet":      w.fleet,
		"typists":    w.typists,
		"agent": map[string]any{
			"cache_mode":       true,
			"max_participants": maxParticipants,
			"max_parked_polls": maxParkedPolls,
			"channels":         true,
			"hmac":             true,
			"wake_debounce":    "0",
		},
		"tiers": "half long-poll with action push, half duplex",
		"args":  strings.Join(os.Args[1:], " "),
	}
}
