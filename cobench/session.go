package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcb/internal/browser"
	"rcb/internal/core"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// Agent configuration shared by every workload: rcb-host's defaults.
const (
	maxParticipants = 64
	maxParkedPolls  = 256
)

// session is one live co-browsing session: the corpus origins on netsim, the
// host browser and its agent on a loopback TCP listener, and the fleet of
// participant snippets dialing it.
type session struct {
	w      workload
	seed   int64
	tr     *tracer // nil in untraced sessions
	key    string
	corpus *sites.Corpus
	host   *browser.Browser
	agent  *core.Agent
	server *httpwire.Server
	addr   string
	policy *countPolicy

	edits, navs, actions *table

	mu     sync.Mutex
	parts  []*participant // by slot, including participants that left
	slots  atomic.Int64   // slots allocated so far
	active []atomic.Bool  // by slot: in the fleet and expected to sync

	pendingNav atomic.Pointer[event]
	lastChange atomic.Int64

	hostMu   sync.Mutex
	hostForm int // highest submit seq the host document has held

	joinMu    sync.Mutex
	joins     dist
	joinAt    []int64 // when each join started, parallel to joins
	joinFails atomic.Int64
	joiners   sync.WaitGroup

	violMu sync.Mutex
	viols  []string

	closing      atomic.Bool
	pollErrs     atomic.Int64
	actionErrs   atomic.Int64
	wireUp       atomic.Int64
	wireDown     atomic.Int64
	connsOpened  atomic.Int64
	foreignDials atomic.Int64
	// staleDocTimes counts participants whose settled docTime trails the
	// agent's latest build at the audit (same content, superseded stamp).
	staleDocTimes atomic.Int64
	outboxMax     atomic.Int64
}

// countPolicy is the exactly-once ledger: it counts every action the
// agent's policy pipeline sees, by the action's schedule index, and applies
// it.
type countPolicy struct {
	s       *session
	counts  []atomic.Int32
	unknown atomic.Int64
}

func (c *countPolicy) Decide(_ string, act core.Action) core.Decision {
	idx := -1
	switch act.Kind {
	case core.ActionFormSubmit:
		for _, f := range act.Fields {
			if f.Name == "q" {
				idx = markerSeq(f.Value)
			}
		}
	case core.ActionMouseMove:
		idx = act.X
	}
	if e := c.s.actions.get(idx); e != nil {
		c.counts[idx].Add(1)
		e.decided.CompareAndSwap(pending, now())
	} else {
		c.unknown.Add(1)
	}
	return core.Apply
}

// markerSeq parses the sequence number after the last '-' of a submitted
// value; -1 when there is none.
func markerSeq(v string) int {
	i := strings.LastIndexByte(v, '-')
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(v[i+1:])
	if err != nil {
		return -1
	}
	return n
}

// sessionKey derives the session's HMAC secret from the seed, so a run's
// inputs depend on nothing else.
func sessionKey(seed int64) string {
	return fmt.Sprintf("%016x", uint64(rand.New(rand.NewSource(seed)).Int63()))
}

// sizes bounds the event tables; the schedule is generated before the
// window, so its counts are exact.
type sizes struct{ edits, navs, actions, slots int }

func newSession(w workload, seed int64, tr *tracer, firstSite string, sz sizes) (*session, error) {
	s := &session{
		w: w, seed: seed, tr: tr, key: sessionKey(seed),
		edits: newTable(sz.edits), navs: newTable(sz.navs), actions: newTable(sz.actions),
		active:   make([]atomic.Bool, sz.slots),
		hostForm: -1,
	}
	s.policy = &countPolicy{s: s, counts: make([]atomic.Int32, sz.actions)}
	corpus, err := sites.NewCorpus()
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	s.corpus = corpus
	s.host = browser.New("host.lan", corpus.Network.Dialer("host.lan"))
	// Registered before the agent's subscriber, so the change is stamped
	// before any participant can be woken for it.
	s.host.OnChange(s.hostFirst)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.host.Close()
		corpus.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.addr = ln.Addr().String()
	a := core.NewAgent(s.host, s.addr)
	a.DefaultCacheMode = true
	a.MaxParticipants = maxParticipants
	a.MaxParkedPolls = maxParkedPolls
	a.Auth = core.NewAuthenticator(s.key)
	a.Policy = s.policy
	s.agent = a
	var handler httpwire.Handler = a
	var l net.Listener = ln
	if tr != nil {
		s.host.OnChange(s.hostLast)
		handler = &tracedAgent{a: a, s: s}
		l = &tracedListener{Listener: ln, tr: tr}
	}
	s.server = &httpwire.Server{Handler: handler}
	s.server.Start(l)
	start := now()
	if _, err := s.host.Navigate("http://www." + firstSite + ":80/"); err != nil {
		s.close()
		return nil, fmt.Errorf("host navigate: %w", err)
	}
	s.span(spNavigate, start, now(), -1, 0)
	return s, nil
}

func (s *session) span(name string, start, end int64, parent int32, change int64) int32 {
	if s.tr == nil {
		return -1
	}
	return s.tr.add(name, start, end, parent, change)
}

func (s *session) violate(format string, args ...any) {
	s.violMu.Lock()
	defer s.violMu.Unlock()
	if len(s.viols) < 32 {
		s.viols = append(s.viols, fmt.Sprintf(format, args...))
	}
}

func (s *session) violations() []string {
	s.violMu.Lock()
	defer s.violMu.Unlock()
	return append([]string(nil), s.viols...)
}

// docMarkers reads the three markers a document carries: how many generated
// edits it holds (body data-bseq), which Table 1 site it shows (title), and
// the highest typist submit merged into its search form.
func docMarkers(doc *dom.Document) (edits int, site string, form int) {
	form = -1
	if head := doc.Root.FirstChildElement("head"); head != nil {
		if title := head.FirstChildElement("title"); title != nil {
			site, _ = strings.CutSuffix(title.TextContent(), " - Home")
		}
	}
	body := doc.Body()
	if body == nil {
		return 0, site, form
	}
	edits, _ = strconv.Atoi(body.AttrOr("data-bseq", "0"))
	for _, c := range body.Children {
		if c.Tag != "form" || c.AttrOr("id", "") != "search" {
			continue
		}
		for _, in := range c.Children {
			if in.Tag == "input" && in.AttrOr("name", "") == "q" {
				form = markerSeq(in.AttrOr("value", ""))
			}
		}
		break
	}
	return edits, site, form
}

// hostFirst runs first on every host document change: it stamps the change
// for the agent-side trace and the navigation or merge it completes.
func (s *session) hostFirst() {
	t := now()
	s.lastChange.Store(t)
	var site string
	form := -1
	_ = s.host.WithDocument(func(_ string, doc *dom.Document) error {
		_, site, form = docMarkers(doc)
		return nil
	})
	if e := s.pendingNav.Load(); e != nil && e.text == site {
		e.change.CompareAndSwap(pending, t)
	}
	s.hostMu.Lock()
	for j := s.hostForm + 1; j <= form; j++ {
		if e := s.actions.get(j); e != nil && e.kind == evSubmit {
			e.change.CompareAndSwap(pending, t)
		}
	}
	s.hostForm = max(s.hostForm, form)
	s.hostMu.Unlock()
}

// newEvent builds an event expecting every active participant except the
// firing typist.
func (s *session) newEvent(kind eventKind, due int64, typist int, text string) *event {
	n := int(s.slots.Load())
	e := &event{kind: kind, due: due, typist: typist, text: text, arrivals: make([]atomic.Int64, n)}
	for i := 0; i < n; i++ {
		if i == typist || !s.active[i].Load() {
			e.arrivals[i].Store(notExpected)
		}
	}
	return e
}

// participant is one fleet member: a real browser model and snippet over a
// loopback TCP dialer, plus the benchmark's markers of what it holds.
type participant struct {
	s      *session
	slot   int
	duplex bool
	b      *browser.Browser
	snip   *core.Snippet
	pid    string
	stop   chan struct{}
	done   chan struct{}
	left   atomic.Bool
	// started is set once the participant's loop runs; done closes when the
	// loop returns.
	started atomic.Bool

	mu                          sync.Mutex
	lastEdit, lastNav, lastForm int // highest event seq held per table

	lastRead atomic.Int64 // traced: when the participant last read bytes
}

func (s *session) newParticipant(duplex bool) *participant {
	s.mu.Lock()
	slot := len(s.parts)
	p := &participant{s: s, slot: slot, duplex: duplex,
		stop: make(chan struct{}), done: make(chan struct{}),
		lastEdit: -1, lastNav: -1, lastForm: -1}
	s.parts = append(s.parts, p)
	s.slots.Store(int64(len(s.parts)))
	s.mu.Unlock()
	p.b = browser.New(fmt.Sprintf("p%d.lan", slot), p.dial)
	snip := core.NewSnippet(p.b, "http://"+s.addr, s.key)
	snip.Delivery = core.DeliveryLongPoll
	if duplex {
		snip.Delivery = core.DeliveryDuplex
	}
	snip.ActionPush = true
	snip.ClientID = fmt.Sprintf("p%d", slot)
	rng := rand.New(rand.NewSource(s.seed ^ int64(slot+1)*0x9E3779B9))
	var rmu sync.Mutex
	snip.RetryRand = func() float64 { rmu.Lock(); defer rmu.Unlock(); return rng.Float64() }
	snip.OnUserAction = p.onAction
	p.snip = snip
	p.b.OnChange(p.onChange)
	return p
}

func (s *session) participants() []*participant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*participant(nil), s.parts...)
}

// dial connects the participant browser to the agent over loopback TCP and
// meters the link. Cache mode rewrites every cached object to the agent, so
// a participant only reaches for an origin when content referenced an object
// the host had not cached; the origins are not reachable from the
// participants, and each such dial is a failed object fetch.
func (p *participant) dial(addr string) (net.Conn, error) {
	s := p.s
	if addr != s.addr {
		s.foreignDials.Add(1)
		return nil, fmt.Errorf("participant %d: dial %s: only the agent is reachable", p.slot, addr)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.connsOpened.Add(1)
	pc := &partConn{Conn: c, p: p}
	if s.tr != nil {
		pc.pr = s.tr.pair(c.LocalAddr().String())
	}
	return pc, nil
}

// partConn meters one participant connection; in traced sessions it also
// closes the agent-write → participant-read loop of its pair.
type partConn struct {
	net.Conn
	p  *participant
	pr *pair
}

func (c *partConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.p.s.wireDown.Add(int64(n))
		if c.pr != nil {
			t := now()
			c.p.lastRead.Store(t)
			c.pr.onRead(c.p.s.tr, n, t)
		}
	}
	return n, err
}

func (c *partConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.p.s.wireUp.Add(int64(n))
	return n, err
}

// onChange runs after every change to the participant's document: the
// snippet has just applied content. It stamps the first arrival of every
// event the document now holds.
func (p *participant) onChange() {
	t := now()
	s := p.s
	var edits, form int
	var site string
	_ = p.b.WithDocument(func(_ string, doc *dom.Document) error {
		edits, site, form = docMarkers(doc)
		return nil
	})
	p.mu.Lock()
	for i := p.lastEdit + 1; i < edits; i++ {
		if e := s.edits.get(i); e != nil {
			e.arrive(p.slot, t)
		}
	}
	p.lastEdit = max(p.lastEdit, edits-1)
	for k := p.lastNav + 1; k < s.navs.len(); k++ {
		if s.navs.get(k).text == site {
			for j := p.lastNav + 1; j <= k; j++ {
				s.navs.get(j).arrive(p.slot, t)
			}
			p.lastNav = k
			break
		}
	}
	for j := p.lastForm + 1; j <= form; j++ {
		if e := s.actions.get(j); e != nil && e.kind == evSubmit {
			e.arrive(p.slot, t)
		}
	}
	p.lastForm = max(p.lastForm, form)
	p.mu.Unlock()
	if s.tr != nil {
		if r := p.lastRead.Load(); r > 0 {
			s.span(spRecvToApply, r, t, -1, 0)
		}
	}
}

// onAction receives mirrored pointer moves; X carries the action's index.
func (p *participant) onAction(act core.Action) {
	if act.Kind != core.ActionMouseMove {
		return
	}
	if e := p.s.actions.get(act.X); e != nil && e.kind == evPointer {
		e.arrive(p.slot, now())
	}
}

// onErr classifies a Run-loop error. Nothing in these workloads kicks or
// sheds, so a terminal close or a bare 4xx/5xx is a violation; any other
// error is a failed poll.
func (p *participant) onErr(err error) {
	if p.s.closing.Load() || p.left.Load() {
		return
	}
	p.s.pollErrs.Add(1)
	var ce *core.CloseError
	if errors.As(err, &ce) {
		if !ce.Reason.Retryable() {
			p.s.violate("participant %d: terminal close %v", p.slot, ce.Reason)
		}
		return
	}
	if msg := err.Error(); strings.Contains(msg, "returned 4") || strings.Contains(msg, "returned 5") {
		p.s.violate("participant %d: bare termination: %v", p.slot, err)
	}
}

// join performs the participant's join — the initial page, then the first
// poll that applies the document and fetches its objects from the agent —
// and returns how long it took.
func (p *participant) join() (time.Duration, error) {
	start := time.Now()
	if err := p.snip.Join(); err != nil {
		return 0, err
	}
	if _, err := p.snip.PollOnce(); err != nil {
		return 0, err
	}
	d := time.Since(start)
	cookie := p.b.Jar.Header(browser.HostOf("http://" + p.s.addr + "/"))
	p.pid = strings.TrimPrefix(cookie, "rcbpid=")
	return d, nil
}

// activate enters the participant into the fleet: events issued from now on
// expect it, and its loop starts.
func (p *participant) activate() {
	s := p.s
	p.mu.Lock()
	p.lastEdit = max(p.lastEdit, s.edits.len()-1)
	p.lastNav = max(p.lastNav, s.navs.len()-1)
	p.lastForm = max(p.lastForm, s.actions.len()-1)
	p.mu.Unlock()
	s.active[p.slot].Store(true)
	p.started.Store(true)
	go func() {
		defer close(p.done)
		p.snip.Run(p.stop, p.onErr)
	}()
}

// leaveGrace is how long before its leave an event may still be in flight
// to a departing participant without counting as lost.
const leaveGrace = time.Second

// leave takes the participant out of the session the way a closing page
// does: the agent drops it, its loop ends on the LEAVE close. Deliveries of
// events issued within leaveGrace are voided — a participant that leaves
// does not owe the session the updates in flight — while older ones it
// never received stay missing and fail the run.
func (p *participant) leave() {
	s := p.s
	s.active[p.slot].Store(false)
	p.left.Store(true)
	cutoff := now() - int64(leaveGrace)
	for _, t := range []*table{s.edits, s.navs, s.actions} {
		evs := t.all()
		for i := len(evs) - 1; i >= 0 && evs[i].due >= cutoff; i-- {
			if p.slot < len(evs[i].arrivals) {
				evs[i].arrivals[p.slot].CompareAndSwap(pending, notExpected)
			}
		}
	}
	s.agent.Disconnect(p.pid)
	close(p.stop)
	// Once its loop has ended, the departed browser's object cache is dropped,
	// as a closed page's would be, so a long churn run holds only the live
	// fleet's state.
	s.joiners.Add(1)
	go func() {
		defer s.joiners.Done()
		<-p.done
		p.b.Close()
		p.b.Cache = browser.NewCache()
	}()
}

// setupFleet joins the fleet one participant at a time — alternating
// long-poll and duplex tiers, typists first — and waits until every
// long-poll is parked and every duplex channel is up.
func (s *session) setupFleet() error {
	for i := 0; i < s.w.fleet; i++ {
		p := s.newParticipant(i%2 == 1)
		at := now()
		d, err := p.join()
		if err != nil {
			return fmt.Errorf("participant %d join: %w", i, err)
		}
		s.joinMu.Lock()
		s.joins = append(s.joins, int64(d))
		s.joinAt = append(s.joinAt, at)
		s.joinMu.Unlock()
		p.activate()
	}
	return s.waitSteady(30 * time.Second)
}

func (s *session) waitSteady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		latest := s.agent.LatestDocTime()
		longPolls, ready := 0, true
		for _, p := range s.participants() {
			if !s.active[p.slot].Load() {
				continue
			}
			if p.snip.DocTime() != latest {
				ready = false
			}
			if p.duplex {
				if p.snip.Stats().DuplexUpgrades == 0 {
					ready = false
				}
			} else {
				longPolls++
			}
		}
		if ready && s.agent.ParkedPolls() >= longPolls {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not steady after %v (%d/%d polls parked)", limit, s.agent.ParkedPolls(), longPolls)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close stops every participant loop and waits for it, then shuts the agent,
// its server, the browsers and the corpus down.
func (s *session) close() {
	s.closing.Store(true)
	s.joiners.Wait()
	parts := s.participants()
	for _, p := range parts {
		if p.started.Load() && !p.left.Load() {
			close(p.stop)
		}
	}
	// Closing the agent completes parked polls and closes channels, so every
	// loop sees its stop promptly.
	if s.agent != nil {
		s.agent.Close()
	}
	for _, p := range parts {
		if p.started.Load() {
			select {
			case <-p.done:
			case <-time.After(30 * time.Second):
				s.violate("participant %d loop did not stop", p.slot)
			}
		}
	}
	if s.server != nil {
		s.server.Close()
	}
	for _, p := range parts {
		p.b.Close()
	}
	s.host.Close()
	s.corpus.Close()
}
