package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"rcb/internal/core"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
)

// Span names, one per layer call the benchmark times from its own code.
const (
	spMutate         = "browser.mutate"
	spNavigate       = "browser.navigate"
	spPoll           = "core.agent.poll"
	spAction         = "core.agent.action"
	spObj            = "core.agent.obj"
	spJoinPage       = "core.agent.join"
	spChannel        = "core.agent.channel"
	spPark           = "core.agent.park"
	spChangeToResp   = "core.agent.change_to_respond"
	spWriteToRead    = "httpwire.write_to_read"
	spRecvToApply    = "core.snippet.recv_to_apply"
	spPush           = "core.actions.push"
	spReplayChange   = "replay.agent.change"
	spBuild          = "core.content.build"
	spMarshal        = "core.xmlmsg.marshal"
	spUnmarshal      = "core.xmlmsg.unmarshal"
	spDiff           = "dom.diff"
	spReplayRecv     = "replay.snippet.recv"
	spDeltaUnmarshal = "core.deltamsg.unmarshal"
	spApply          = "core.snippet.apply"
	spApplyDelta     = "core.snippet.apply_delta"
	spVerify         = "core.auth.verify"
	spDecode         = "core.actions.decode"
)

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 1 << 20

// span is one timed layer call: name, start and end on the benchmark clock,
// the span that caused it (-1 for none), and the change it served (a
// docTime, edit count or action index; 0 when none applies).
type span struct {
	name       string
	start, end int64
	parent     int32
	change     int64
}

// tracer keeps spans in memory for one traced session, plus the payloads
// the session carried, which the replays time after the window.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int64

	pmu   sync.Mutex
	pairs map[string]*pair

	cmu      sync.Mutex
	requests []capturedRequest // signed requests, for Verify replays
	actions  []string          // action payloads, for DecodeActions replays
	streams  map[string]*stream
	hostDocs []hostDoc

	// Agent-side counters, read at the window's edges.
	polls, emptyPolls, requestsServed, respBytes atomic.Int64
}

type capturedRequest struct {
	method, target string
	body           []byte
}

// stream is the exact payload sequence one long-poll participant received:
// its initial page, then every poll response body in order.
type stream struct {
	page   []byte
	bodies [][]byte
}

type hostDoc struct {
	url string
	doc *dom.Document
}

// Capture caps: enough samples for stable medians, bounded memory.
const (
	maxRequests = 4096
	maxActions  = 4096
	maxHostDocs = 400
	maxStreams  = 8
)

func newTracer() *tracer {
	return &tracer{pairs: make(map[string]*pair), streams: make(map[string]*stream)}
}

func (t *tracer) add(name string, start, end int64, parent int32, change int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name, start, end, parent, change})
	return int32(len(t.spans) - 1)
}

// durations returns the durations of every span called name, and how many
// of them started inside [from, to).
func (t *tracer) durations(name string, from, to int64) (d dist, inWindow int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if sp.name != name {
			continue
		}
		d = append(d, sp.end-sp.start)
		if sp.start >= from && sp.start < to {
			inWindow++
		}
	}
	return d, inWindow
}

// write stores the spans as JSON lines, each with its self time: its
// duration less the part its child spans cover.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
		Parent int32  `json:"parent"`
		Change int64  `json:"change"`
	}
	for i, sp := range t.spans {
		if err := enc.Encode(line{i, sp.name, sp.start, sp.end, sp.end - sp.start - child[i], sp.parent, sp.change}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pair links the agent's end of one loopback connection to the
// participant's end: each agent write is queued with its end offset and
// completes when the participant has read past it.
type pair struct {
	mu     sync.Mutex
	wrote  int64
	read   int64
	writes []pendingWrite
}

type pendingWrite struct{ end, at int64 }

// pair returns the pair keyed by the participant-side address.
func (t *tracer) pair(key string) *pair {
	t.pmu.Lock()
	defer t.pmu.Unlock()
	p := t.pairs[key]
	if p == nil {
		p = &pair{}
		t.pairs[key] = p
	}
	return p
}

func (p *pair) onWrite(n int, at int64) {
	p.mu.Lock()
	p.wrote += int64(n)
	p.writes = append(p.writes, pendingWrite{p.wrote, at})
	p.mu.Unlock()
}

func (p *pair) onRead(t *tracer, n int, at int64) {
	p.mu.Lock()
	p.read += int64(n)
	i := 0
	for ; i < len(p.writes) && p.writes[i].end <= p.read; i++ {
		t.add(spWriteToRead, p.writes[i].at, at, -1, 0)
	}
	p.writes = p.writes[i:]
	p.mu.Unlock()
}

// tracedListener wraps the agent's listener so every accepted connection
// reports its writes to its pair.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &agentConn{Conn: c, pr: l.tr.pair(c.RemoteAddr().String())}, nil
}

type agentConn struct {
	net.Conn
	pr *pair
}

func (c *agentConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if n > 0 {
		c.pr.onWrite(n, now())
	}
	return n, err
}

// tracedAgent wraps the agent's handler: it times each request's
// synchronous extent and, for a parked poll, the park and the wake, and
// keeps the payloads the replays need.
type tracedAgent struct {
	a *core.Agent
	s *session
}

func (h *tracedAgent) ServeWire(req *httpwire.Request) *httpwire.Response {
	return h.a.ServeWire(req)
}

func requestSpan(req *httpwire.Request) string {
	switch path := req.Path(); {
	case req.Method == "GET" && path == "/":
		return spJoinPage
	case req.Method == "GET":
		return spObj
	case path == "/poll":
		return spPoll
	case path == "/action":
		return spAction
	default:
		return spChannel
	}
}

// Request states while the wrapped ServeWireAsync runs.
const (
	inCall int32 = iota
	returned
	answeredInline
)

func (h *tracedAgent) ServeWireAsync(req *httpwire.Request, respond func(*httpwire.Response)) {
	tr := h.s.tr
	name := requestSpan(req)
	h.capture(name, req)
	start := now()
	var state atomic.Int32
	var parkedAt atomic.Int64
	var self atomic.Int32
	self.Store(-1)
	h.a.ServeWireAsync(req, func(resp *httpwire.Response) {
		t := now()
		if !state.CompareAndSwap(inCall, answeredInline) {
			// The request parked: its wake answers it now.
			p := tr.add(spPark, parkedAt.Load(), t, self.Load(), 0)
			if carriesDocument(resp.Body) {
				if c := h.s.lastChange.Load(); c > 0 && c < t {
					tr.add(spChangeToResp, c, t, p, 0)
				}
			}
		}
		h.account(name, req, resp)
		respond(resp)
	})
	end := now()
	parkedAt.Store(end)
	self.Store(tr.add(name, start, end, -1, 0))
	state.CompareAndSwap(inCall, returned)
}

// capture keeps the payloads later replays time: signed requests for
// Verify and action payloads for DecodeActions.
func (h *tracedAgent) capture(name string, req *httpwire.Request) {
	tr := h.s.tr
	tr.cmu.Lock()
	defer tr.cmu.Unlock()
	if name != spJoinPage && len(tr.requests) < maxRequests {
		tr.requests = append(tr.requests, capturedRequest{req.Method, req.Target, req.Body})
	}
	if bytes.Contains(req.Body, []byte("actions=")) && len(tr.actions) < maxActions {
		for _, f := range httpwire.ParseForm(string(req.Body)) {
			if f.Name == "actions" {
				tr.actions = append(tr.actions, f.Value)
			}
		}
	}
}

// account counts one answered request and records a long-poll
// participant's stream.
func (h *tracedAgent) account(name string, req *httpwire.Request, resp *httpwire.Response) {
	tr := h.s.tr
	tr.requestsServed.Add(1)
	tr.respBytes.Add(int64(len(resp.Body)))
	if name == spPoll {
		tr.polls.Add(1)
		if len(resp.Body) == 0 {
			tr.emptyPolls.Add(1)
		}
	}
	var pid string
	switch name {
	case spJoinPage:
		pid = cookiePID(resp.Header.Get("Set-Cookie"))
	case spPoll:
		pid = cookiePID(req.Header.Get("Cookie"))
	default:
		return
	}
	tr.cmu.Lock()
	defer tr.cmu.Unlock()
	st := tr.streams[pid]
	if name == spJoinPage {
		if st == nil && len(tr.streams) < maxStreams && resp.StatusCode == 200 {
			tr.streams[pid] = &stream{page: resp.Body}
		}
		return
	}
	if st != nil && resp.StatusCode == 200 {
		st.bodies = append(st.bodies, resp.Body)
	}
}

// carriesDocument reports whether a poll answer carries document content
// (a snapshot or a delta), not just mirrored actions.
func carriesDocument(body []byte) bool {
	return core.MessageIsDelta(body) || bytes.Contains(body[:min(len(body), 128)], []byte("<docContent>"))
}

func cookiePID(h string) string {
	for _, part := range strings.Split(h, ";") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(part), "rcbpid="); ok {
			return v
		}
	}
	return ""
}

// hostLast runs after the agent's own change subscriber in traced sessions:
// it closes the span of each merged typist submit (policy decision to
// applied change, subscribers included) and keeps a copy of the host
// document for the content-generation replays.
func (s *session) hostLast() {
	t := now()
	form := -1
	var hd hostDoc
	keep := false
	s.tr.cmu.Lock()
	keep = len(s.tr.hostDocs) < maxHostDocs
	s.tr.cmu.Unlock()
	_ = s.host.WithDocument(func(url string, doc *dom.Document) error {
		_, _, form = docMarkers(doc)
		if keep {
			hd = hostDoc{url: url, doc: doc.Clone()}
		}
		return nil
	})
	for j := form; j >= 0; j-- {
		e := s.actions.get(j)
		if e == nil || e.kind != evSubmit {
			continue
		}
		if !e.spanned.CompareAndSwap(false, true) {
			break
		}
		if d := e.decided.Load(); d > 0 {
			s.tr.add(spMutate, d, t, -1, int64(j))
		}
	}
	if keep {
		s.tr.cmu.Lock()
		s.tr.hostDocs = append(s.tr.hostDocs, hd)
		s.tr.cmu.Unlock()
	}
}

func (t *tracer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("%d spans (%d dropped)", len(t.spans), t.dropped)
}
