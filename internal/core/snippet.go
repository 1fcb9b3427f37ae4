package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
)

// SnippetStats counts a snippet's protocol activity.
type SnippetStats struct {
	Polls            int64
	EmptyPolls       int64
	ContentPolls     int64
	DeltaPolls       int64         // content polls answered incrementally (deltaContent)
	DeltaFailures    int64         // delta applies abandoned for a full resync
	ActionsSent      int64         // actions piggybacked on polling requests
	ActionsPushed    int64         // actions delivered through the /action upstream
	ActionFallbacks  int64         // push attempts that degraded to the piggyback queue
	PollFailures     int64         // polls that returned an error (transport or terminal)
	Rejoins          int64         // automatic rejoin-and-resync cycles completed
	Relocates        int64         // rejoins that followed an Rcb-Relocate address
	LastApplyTime    time.Duration // duration of the last Figure 5 application (the paper's M6)
	ObjectFetches    int64
	ObjectsFromAgent int64
	// Duplex counters: activity on the framed persistent channel.
	DuplexUpgrades    int64 // successful POST /channel upgrades
	DuplexFramesIn    int64 // frames received over channels
	DuplexFramesOut   int64 // frames sent over channels (actions, acks, pings)
	DuplexActionsSent int64 // actions delivered as channel frames
	DuplexFallbacks   int64 // channel losses/refusals that degraded to polling
	// LastCloseReason is the most recent close reason the agent sent —
	// why this snippet was dropped, refused, or told to back off.
	LastCloseReason CloseReason
}

// DeliveryMode selects how a snippet paces its polling requests.
type DeliveryMode int

const (
	// DeliveryInterval is the paper's fixed-interval poll (§4.2.1): sleep
	// PollInterval between requests, accept a mean staleness of half the
	// interval. This is the default and the fallback every other mode
	// degrades to.
	DeliveryInterval DeliveryMode = iota
	// DeliveryLongPoll is the hanging-GET (Comet) channel: each request
	// carries a wait field asking the agent to park it until new content
	// exists, and Run re-issues the next request immediately after a
	// response arrives. Staleness drops to the transfer time; an idle
	// session costs one request per LongPollWait instead of one per
	// PollInterval. Action piggybacking and requeue-on-failure work
	// exactly as in interval mode.
	DeliveryLongPoll
	// DeliveryDuplex upgrades the exchange to a single framed full-duplex
	// connection (POST /channel → 101): the agent pushes content and delta
	// frames the instant a build lands, and the snippet sends action frames
	// upstream on the same socket — no parked request, no separate action
	// lane, one HMAC for the connection's lifetime. When the channel is
	// refused or lost the snippet degrades to long-poll (and from there,
	// under park denial, to interval pacing) and periodically re-attempts
	// the upgrade — the full degradation ladder of README's delivery
	// section.
	DeliveryDuplex
)

// DefaultLongPollWait is the per-request hang a long-poll snippet asks for
// when LongPollWait is zero. Kept under the agent-side DefaultMaxPollWait
// so the request completes at the client's horizon, not the server's cap.
const DefaultLongPollWait = 20 * time.Second

// longPollReadSlack pads the client-side read deadline past the requested
// hang: the deadline is a safety net against a dead agent, not a second
// pacing mechanism, so it must never fire before a healthy agent's timeout
// response arrives.
const longPollReadSlack = 10 * time.Second

// parkDeniedThreshold separates "the agent refused to park this request"
// (empty answer at round-trip speed; Run must pace itself) from "the agent
// parked it and the hang elapsed" (empty answer at hang scale; re-issue
// immediately). Comfortably above the WAN round trips the experiments
// model, comfortably below any sensible hang.
const parkDeniedThreshold = 100 * time.Millisecond

// Snippet is the participant-side Ajax-Snippet: the polling loop and
// content application procedure a participant browser's JavaScript runs
// (paper §4.2), reproduced as a Go state machine driving a participant
// browser model. One Snippet serves one participant.
//
// # Delivery modes
//
// By default the snippet reproduces the paper exactly: Run sleeps
// PollInterval between polls and every request completes immediately
// (DeliveryInterval). DeliveryLongPoll turns the same request/response
// exchange into a push path, and DeliveryDuplex upgrades to a framed
// persistent channel that falls back to long-poll — see DeliveryMode.
// PollOnce honors the mode either way, so harnesses that drive polls
// manually get long-poll semantics just by setting the field.
//
// The transports share one implementation of each job they have in
// common: building the signed request, reading and recording a close
// (from response headers or a close frame), applying a content message,
// and pausing a failed action push or channel on a half-open breaker.
type Snippet struct {
	// Browser is the participant browser model.
	Browser *browser.Browser
	// AgentURL is the RCB-Agent address typed into the address bar,
	// e.g. "http://host.lan:3000".
	AgentURL string
	// Key is the out-of-band session secret; empty disables HMAC signing.
	Key string
	// PollInterval is the delay between polls when Run drives the loop in
	// interval mode, and the retry backoff after a failed poll in long-poll
	// mode. The paper's experiments use one second.
	PollInterval time.Duration
	// Delivery selects interval polling (default, paper semantics), the
	// hanging-GET long-poll channel, or the duplex persistent channel with
	// its long-poll fallback.
	Delivery DeliveryMode
	// LongPollWait is the maximum hang requested per long-poll request;
	// zero means DefaultLongPollWait. The agent may cap it further
	// (Agent.MaxPollWait). Ignored in interval mode.
	LongPollWait time.Duration
	// ActionPush enables the fire-and-forget action upstream: in long-poll
	// mode each locally generated user action is POSTed to the agent's
	// /action endpoint the moment it occurs, on its own connection lane, so
	// it never waits behind a parked polling request. The action entry
	// points then block for the push round trip (bounded by
	// actionPushTimeout), which preserves action ordering without a worker
	// goroutine. Interval-mode snippets ignore it and keep the paper's
	// piggyback path (their next request is already at most one interval
	// away, and adding a second channel would double their request rate for
	// little gain). Any push failure falls back to the piggyback queue —
	// the action is never lost — and suspends further pushes until a poll
	// succeeds again. An ack lost after the agent merged the action makes
	// the next poll resend it, and the agent's (CID, CSeq) replay filter
	// drops the copy, so delivery stays exactly-once.
	ActionPush bool
	// FetchObjects controls whether supplementary objects are downloaded
	// after a content update (on by default; the experiment harness turns
	// it off when it wants to time M6 in isolation).
	FetchObjects bool
	// DisableDelta stops the snippet from advertising deltaContent support:
	// every content poll then carries the full Figure 4 snapshot, the
	// paper's exact protocol. Benchmarks use it to compare the two paths.
	DisableDelta bool
	// OnUserAction, when non-nil, receives mirrored actions of other users
	// (pointer moves, etc.).
	OnUserAction func(Action)
	// ClientID identifies this snippet for the agent's action replay
	// filter; every action is stamped with it plus a client-local sequence
	// number. Auto-generated when left empty. Stable across rejoins, so a
	// re-sent queue is deduplicated even under a new participant identity.
	ClientID string
	// RetryBase/RetryMax shape the unified retry backoff (poll, join,
	// action push, channel upgrade): delays double from RetryBase up to
	// RetryMax with half-to-full jitter, and reset on success. RetryBase
	// defaults to PollInterval, RetryMax to 30 seconds.
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetryRand overrides the jitter source with a deterministic one
	// (tests); nil uses math/rand. Called only under the snippet's lock.
	RetryRand func() float64

	auth *Authenticator

	mu sync.Mutex
	// curAgentURL is the agent the snippet currently talks to: AgentURL
	// until a MOVED response relocates the session, the Rcb-Relocate
	// address afterwards. prevAgentURL remembers the address before the
	// last relocation so a refused join at the new agent can fall back.
	// relocateTo holds a received Rcb-Relocate address until the next
	// Rejoin consumes it — exactly once.
	curAgentURL  string
	prevAgentURL string
	relocateTo   string
	// pollAddr caches the dial address resolved from pollAddrFor; it is
	// recomputed whenever the agent URL changes (relocation).
	pollAddr    string
	pollAddrFor string
	pollAddrErr error
	docTime     int64
	queue       []Action
	stats       SnippetStats
	lastObjects []browser.ObjectFetch
	memo        ApplyMemo
	// parkDenied records that the most recent poll asked the agent to park
	// it and was answered instantly empty — the push channel is gone
	// (Agent.Close), so Run must pace itself instead of re-issuing at
	// network speed.
	parkDenied bool
	// agentClosing records that the last poll was answered with the
	// AgentClosing marker: the server completed it deliberately while
	// shutting down, so Run backs off instead of re-parking immediately.
	agentClosing bool
	// retryAfter is the server-assigned retry interval from the last poll
	// (shed ladder); zero when the server sent none.
	retryAfter time.Duration
	// rejoinNeeded is set when the agent terminated the session with a
	// retryable close reason; Run re-joins and resyncs before polling on.
	rejoinNeeded bool
	// channel is the live duplex connection, nil when none is attached;
	// dispatch routes actions onto it. chanSent is the retransmit buffer:
	// actions written to the channel but not yet covered by a FrameActionAck,
	// requeued for piggybacking when the channel dies so delivery stays
	// at-least-once (the agent's replay filter makes it exactly-once).
	channel  *httpwire.ChannelConn
	chanSent []Action
	cseq     int64
	clientID string
	// pollBackoff and joinBackoff pace retries of their paths. push pauses
	// the /action upstream after a failed push (actions go straight to the
	// piggyback queue); duplex pauses upgrade attempts after a refusal or a
	// lost channel (the long-poll fallback carries the session).
	pollBackoff Backoff
	joinBackoff Backoff
	push        breaker
	duplex      breaker

	// wmu is the upstream writer lock, taken before mu. One action at a
	// time is stamped, routed and — on a channel — entered in chanSent and
	// written, so the retransmit buffer is in wire order (the agent's
	// cumulative FrameActionAck prunes by it); the channel attach publishes
	// the channel and flushes the queue under it, so no action overtakes
	// the queued ones.
	wmu sync.Mutex
}

// NewSnippet returns a snippet for a participant browser joining agentURL.
func NewSnippet(b *browser.Browser, agentURL, key string) *Snippet {
	s := &Snippet{
		Browser:      b,
		AgentURL:     agentURL,
		Key:          key,
		PollInterval: time.Second,
		FetchObjects: true,
	}
	if key != "" {
		s.auth = NewAuthenticator(key)
	}
	// The snippet performs the Figure 5 render pass itself; the browser's
	// renderer must not race it with its own mutation-triggered fetches.
	b.FetchOnMutate = false
	return s
}

// Stats returns a copy of the protocol counters.
func (s *Snippet) Stats() SnippetStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DocTime returns the last document timestamp acknowledged.
func (s *Snippet) DocTime() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.docTime
}

// LastObjectFetches reports the supplementary-object downloads of the most
// recent content application (experiment harness hook for M3/M4).
func (s *Snippet) LastObjectFetches() []browser.ObjectFetch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]browser.ObjectFetch(nil), s.lastObjects...)
}

// Join performs the new connection request (paper step 2): the participant
// types the agent URL into the address bar, receives the initial page
// containing Ajax-Snippet, and the channel is established.
func (s *Snippet) Join() error {
	url := s.agentURL()
	if _, err := s.Browser.Navigate(url + "/"); err != nil {
		var se *browser.StatusError
		if errors.As(err, &se) {
			if cs := closeFromHeader(se.Header); cs.reason != CloseNone {
				s.mu.Lock()
				s.noteCloseLocked(cs)
				if cs.reason == CloseMoved {
					// The agent moved under us even for joining: follow the
					// relocation on the next Rejoin attempt.
					s.rejoinNeeded = true
				}
				s.mu.Unlock()
				return closeErr("join "+url, cs.reason, se.StatusCode)
			}
		}
		return fmt.Errorf("rcb-snippet: join %s: %w", url, err)
	}
	var hasSnippet bool
	err := s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		hasSnippet = doc.ByID("rcb-ajax-snippet") != nil
		return nil
	})
	if err != nil {
		return err
	}
	if !hasSnippet {
		return fmt.Errorf("rcb-snippet: initial page from %s has no Ajax-Snippet", url)
	}
	return nil
}

// CurrentAgentURL reports which agent the snippet is talking to — AgentURL
// until a relocation was followed, the new agent's URL afterwards.
func (s *Snippet) CurrentAgentURL() string { return s.agentURL() }

// QueueAction buffers an action for piggybacking on the next polling
// request (paper §4.2.1: the POST method is used "so that action
// information of a co-browsing participant can be directly piggybacked").
func (s *Snippet) QueueAction(act Action) {
	s.mu.Lock()
	s.stampLocked(&act)
	s.queue = append(s.queue, act)
	s.mu.Unlock()
}

// snippetSeq distinguishes auto-generated client IDs within a process.
var snippetSeq atomic.Int64

// stampLocked assigns the replay-filter identity (CID, CSeq) to an action
// that doesn't have one yet. Retries and requeues keep the original stamp —
// that is the whole point.
func (s *Snippet) stampLocked(act *Action) {
	if act.CID != "" {
		return
	}
	if s.clientID == "" {
		if s.ClientID != "" {
			s.clientID = s.ClientID
		} else {
			s.clientID = "c" + strconv.FormatInt(time.Now().UnixNano(), 36) +
				"-" + strconv.FormatInt(snippetSeq.Add(1), 10)
		}
	}
	act.CID = s.clientID
	s.cseq++
	act.CSeq = s.cseq
}

// backoffsLocked lazily configures the four retry schedules; separate
// instances, because a flapping push path must not inflate poll retry
// delays (and vice versa). The push and duplex schedules pace their
// breakers' probes.
func (s *Snippet) backoffsLocked() (poll, join *Backoff) {
	if s.pollBackoff.Base == 0 {
		base := s.RetryBase
		if base <= 0 {
			base = s.PollInterval
		}
		for _, b := range []*Backoff{&s.pollBackoff, &s.joinBackoff, &s.push.Backoff, &s.duplex.Backoff} {
			*b = *newBackoff(base, s.RetryMax, s.RetryRand)
		}
	}
	return &s.pollBackoff, &s.joinBackoff
}

// LastCloseReason reports the most recent close reason received from the
// agent (CloseNone when the session never saw one).
func (s *Snippet) LastCloseReason() CloseReason {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.LastCloseReason
}

// RejoinNeeded reports whether the agent closed this session with a
// retryable reason and the snippet is waiting to rejoin.
func (s *Snippet) RejoinNeeded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejoinNeeded
}

// Rejoin re-registers with the agent and resets sync state so the next
// poll fetches a full snapshot — the recovery path after a retryable close
// reason (agent restart, stale-reader kick, expired identity). The
// piggyback queue survives: unacknowledged actions are re-sent under the
// same (CID, CSeq) stamps and the agent's replay filter keeps delivery
// exactly-once.
//
// A pending Rcb-Relocate address is consumed here, exactly once: the join
// goes to the new agent, and on failure the snippet falls back to the
// address it was using before (where a MOVED answer may hand it a fresh
// relocation — chained handovers converge the same way).
func (s *Snippet) Rejoin() error {
	s.mu.Lock()
	relocated := false
	if s.relocateTo != "" {
		s.prevAgentURL = s.agentURLLocked()
		s.curAgentURL = s.relocateTo
		s.relocateTo = ""
		relocated = true
	}
	s.mu.Unlock()
	if err := s.Join(); err != nil {
		if relocated {
			s.mu.Lock()
			// The relocation target refused us: fall back to the previous
			// agent rather than stranding the session on a dead address.
			s.curAgentURL = s.prevAgentURL
			s.mu.Unlock()
		}
		return err
	}
	s.resetMemo()
	s.mu.Lock()
	if relocated {
		s.stats.Relocates++
	}
	s.docTime = 0
	s.rejoinNeeded = false
	s.agentClosing = false
	// A fresh identity deserves a fresh push and upgrade attempt: after a
	// relocation the new agent has never refused this snippet either.
	s.push.reset()
	s.duplex.reset()
	s.stats.Rejoins++
	s.joinBackoff.Reset()
	s.mu.Unlock()
	return nil
}

// actionLane is the client connection lane action pushes travel on — its
// own persistent connection, so a push never queues behind a polling
// exchange the agent has parked.
const actionLane = "action"

// actionPushTimeout bounds the /action round trip: the endpoint answers
// immediately by design, so anything slower than this is a dead or
// unreachable agent and the action must fall back to the piggyback queue.
const actionPushTimeout = 5 * time.Second

// dispatch routes one locally generated user action upstream, one action
// at a time under wmu: over the duplex channel when one is attached,
// through the fire-and-forget action POST when the push path is enabled
// and its breaker is not suspended, otherwise into the piggyback queue for
// the next polling request. A failed push falls back to the queue —
// degradation can delay an action, never drop it — and trips the push
// breaker so later actions don't pay a doomed round trip each before a
// poll proves the agent reachable again.
//
// The fallback is exactly-once: if the failure was a lost or late ack
// rather than a lost request, the agent has already applied the action and
// the piggybacked retry resends it, but the action carries its (CID, CSeq)
// stamp and the agent's replay filter drops the copy — the same guard that
// keeps the poll path's requeue-on-transport-error exactly-once.
func (s *Snippet) dispatch(act Action) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	s.stampLocked(&act)
	s.mu.Unlock()
	if s.dispatchDuplex(act) {
		return
	}
	if !s.pushEligible() {
		s.QueueAction(act)
		return
	}
	err := s.PushAction(act)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.push.reset()
		return
	}
	s.backoffsLocked()
	s.push.suspend(0)
	s.stats.ActionFallbacks++
	s.noteCloseLocked(closeSignal{reason: CloseReasonOf(err)})
	s.queue = append(s.queue, act)
}

// pushEligible reports whether the next action may use the /action
// upstream. Interval-mode snippets never push (the paper's piggyback path
// is their protocol), and a non-empty piggyback queue forces queueing so
// actions are never reordered around earlier ones still waiting for a
// poll. A suspended push breaker re-arms on the next successful poll, or —
// when the agent stays unreachable on the poll path too — admits one probe
// push per backoff step (half-open): the probe's success re-arms it, its
// failure doubles the pause.
func (s *Snippet) pushEligible() bool {
	if !s.ActionPush || s.Delivery == DeliveryInterval {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) == 0 && !s.push.suspended()
}

// PushAction sends one action to the agent's /action endpoint and waits for
// the acknowledgment. The exchange rides the dedicated action lane, so it
// proceeds even while this snippet's polling request is parked server-side.
// Callers wanting the automatic piggyback fallback should go through the
// action entry points (ClickElement, PointerMove, ...) instead.
func (s *Snippet) PushAction(act Action) error {
	addr, req, err := s.newRequest("/action", []httpwire.FormField{
		{Name: "actions", Value: EncodeActions([]Action{act})},
	})
	if err != nil {
		return err
	}
	resp, err := s.Browser.Client.DoLane(addr, actionLane, req, actionPushTimeout)
	if err != nil {
		return fmt.Errorf("rcb-snippet: action push: %w", err)
	}
	if resp.StatusCode != 200 {
		return closeErr("action push", closeFromHeader(resp.Header).reason, resp.StatusCode)
	}
	s.mu.Lock()
	s.stats.ActionsPushed++
	s.mu.Unlock()
	return nil
}

// ClickElement dispatches a click action for the element with the given
// data-rcb path in the participant's current document — what the rewritten
// onclick handler does in a real browser. Like every action entry point it
// goes through dispatch: pushed upstream immediately when ActionPush is
// active, piggybacked on the next poll otherwise.
func (s *Snippet) ClickElement(domID string) error {
	path, err := s.rcbPathOf(domID, "")
	if err != nil {
		return err
	}
	s.dispatch(Action{Kind: ActionClick, Target: path})
	return nil
}

// SubmitFormByID dispatches a formsubmit action carrying the given fields
// for the form with the given DOM id — what the rewritten onsubmit handler
// does.
func (s *Snippet) SubmitFormByID(domID string, fields []httpwire.FormField) error {
	path, err := s.rcbPathOf(domID, "form")
	if err != nil {
		return err
	}
	s.dispatch(Action{Kind: ActionFormSubmit, Target: path, Fields: fields})
	return nil
}

// InputField dispatches a forminput action for the field with the given DOM
// id.
func (s *Snippet) InputField(domID, value string) error {
	path, err := s.rcbPathOf(domID, "")
	if err != nil {
		return err
	}
	s.dispatch(Action{Kind: ActionFormInput, Target: path, Value: value})
	return nil
}

// PointerMove dispatches a pointer-mirroring action.
func (s *Snippet) PointerMove(x, y int) {
	s.dispatch(Action{Kind: ActionMouseMove, X: x, Y: y})
}

// rcbPathOf finds an element by DOM id and returns its data-rcb path.
func (s *Snippet) rcbPathOf(domID, wantTag string) (string, error) {
	var path string
	err := s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		el := doc.ByID(domID)
		if el == nil {
			return fmt.Errorf("rcb-snippet: no element with id %q", domID)
		}
		if wantTag != "" && el.Tag != wantTag {
			return fmt.Errorf("rcb-snippet: element %q is <%s>, want <%s>", domID, el.Tag, wantTag)
		}
		path = el.AttrOr(RCBAttr, "")
		if path == "" {
			return fmt.Errorf("rcb-snippet: element %q has no %s attribute (not rewritten?)", domID, RCBAttr)
		}
		return nil
	})
	return path, err
}

// lastParkDenied reports whether the most recent poll asked to park and was
// refused (answered instantly empty). Run falls back to interval pacing
// when it holds, so a long-poll loop cannot spin at network speed against
// an agent whose push channel has been closed but whose server still
// serves.
func (s *Snippet) lastParkDenied() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parkDenied
}

// agentURL returns the URL of the agent currently serving this snippet:
// AgentURL until a relocation, the followed Rcb-Relocate address after.
func (s *Snippet) agentURL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agentURLLocked()
}

func (s *Snippet) agentURLLocked() string {
	if s.curAgentURL == "" {
		s.curAgentURL = s.AgentURL
	}
	return s.curAgentURL
}

// agentAddr resolves and returns the agent dial address, shared by the
// polling and action-push paths. The result is cached per agent URL and
// recomputed when a relocation changes it.
func (s *Snippet) agentAddr() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	url := s.agentURLLocked()
	if url != s.pollAddrFor {
		s.pollAddr, s.pollAddrErr = browser.AddrOf(url + "/")
		s.pollAddrFor = url
	}
	return s.pollAddr, s.pollAddrErr
}

// newRequest builds one signed form POST to the current agent — the poll,
// the action push and the channel upgrade all go out through it: the form
// body, its HMAC signature when a key is set, and the rcbpid cookie.
func (s *Snippet) newRequest(path string, fields []httpwire.FormField) (addr string, req *httpwire.Request, err error) {
	if addr, err = s.agentAddr(); err != nil {
		return "", nil, err
	}
	body := httpwire.AppendForm(make([]byte, 0, 64), fields)
	if s.auth != nil {
		path = s.auth.Sign("POST", path, body)
	}
	req = httpwire.NewRequest("POST", path)
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if c := s.Browser.Jar.Header(browser.HostOf(s.agentURL() + "/")); c != "" {
		req.Header.Set("Cookie", c)
	}
	req.Body = body
	return addr, req, nil
}

// closeFromHeader reads the close-reason protocol off an HTTP answer: the
// header spelling of the closeSignal a FrameClose payload carries.
func closeFromHeader(h httpwire.Header) closeSignal {
	return closeSignal{
		reason:   ParseCloseReason(h.Get(CloseReasonHeader)),
		retry:    parseRetryAfterMS(h.Get(RetryAfterHeader)),
		relocate: h.Get(RelocateHeader),
	}
}

// noteCloseLocked records a close whichever transport delivered it: the
// reason, the server-assigned retry interval (the floor for the next
// delay), and for MOVED the address the next Rejoin follows — exactly once.
// Routing the close (rejoin, degrade, end) stays with the caller.
func (s *Snippet) noteCloseLocked(cs closeSignal) {
	if cs.reason != CloseNone {
		s.stats.LastCloseReason = cs.reason
	}
	if cs.retry > 0 {
		s.retryAfter = cs.retry
	}
	if cs.reason == CloseMoved && cs.relocate != "" {
		s.relocateTo = normalizeAgentURL(cs.relocate)
	}
}

// closeErr is the error a refused exchange surfaces: a CloseError when the
// agent gave a reason, the bare status otherwise.
func closeErr(what string, reason CloseReason, status int) error {
	if reason == CloseNone {
		return fmt.Errorf("rcb-snippet: %s returned %d", what, status)
	}
	return fmt.Errorf("rcb-snippet: %s: %w", what, &CloseError{Reason: reason, Status: status})
}

// normalizeAgentURL turns a bare Rcb-Relocate address into an agent URL.
func normalizeAgentURL(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// parseRetryAfterMS parses an Rcb-Retry-After header value (milliseconds).
func parseRetryAfterMS(v string) time.Duration {
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// longPollWait resolves the hang to request per poll: 0 in interval mode.
// A duplex snippet asks for the hang too — its polls are the long-poll
// fallback rung of the degradation ladder.
func (s *Snippet) longPollWait() time.Duration {
	if s.Delivery == DeliveryInterval {
		return 0
	}
	if s.LongPollWait > 0 {
		return s.LongPollWait
	}
	return DefaultLongPollWait
}

// PollOnce sends one Ajax polling request and processes the response per
// Figure 5. It reports whether new document content was applied. In
// long-poll mode the request asks the agent to park it (wait field), so the
// call may block for up to LongPollWait before returning an empty result;
// the connection carries a read deadline slightly past that hang so a dead
// agent cannot park the snippet forever.
func (s *Snippet) PollOnce() (updated bool, err error) {
	s.mu.Lock()
	ts := s.docTime
	actions := s.queue
	s.queue = nil
	s.stats.Polls++
	s.stats.ActionsSent += int64(len(actions))
	s.parkDenied = false
	s.agentClosing = false
	s.retryAfter = 0
	s.mu.Unlock()

	fields := []httpwire.FormField{{Name: "ts", Value: strconv.FormatInt(ts, 10)}}
	if !s.DisableDelta && ts > 0 {
		// Advertise delta support once a baseline exists; the agent still
		// decides per response whether a delta is available and worthwhile.
		fields = append(fields, httpwire.FormField{Name: "delta", Value: "1"})
	}
	if len(actions) > 0 {
		fields = append(fields, httpwire.FormField{Name: "actions", Value: EncodeActions(actions)})
	}
	wait := s.longPollWait()
	if wait > 0 && len(actions) > 0 {
		// An action-carrying request never parks: the agent merges actions
		// before deciding to park, so a parked exchange that later fails
		// (server shutdown, dropped link, tripped read deadline) would
		// requeue and replay actions the host already applied. Asking for
		// an immediate answer keeps the merged-but-unanswered window at
		// round-trip scale, as in interval mode; the next poll, action-
		// free, parks as usual.
		wait = 0
	}
	var readTimeout time.Duration
	if wait > 0 {
		fields = append(fields, httpwire.FormField{Name: "wait", Value: strconv.FormatInt(wait.Milliseconds(), 10)})
		readTimeout = wait + longPollReadSlack
	}
	pollStart := time.Now()
	addr, req, err := s.newRequest("/poll", fields)
	var resp *httpwire.Response
	if err == nil {
		resp, err = s.Browser.Client.DoTimeout(addr, req, readTimeout)
	}
	if err != nil || resp.StatusCode != 200 {
		// Failed polls requeue their actions so interaction is not lost on
		// a transient drop. Replays of actions the agent did merge before
		// the failure are absorbed by its (CID, CSeq) filter.
		s.mu.Lock()
		defer s.mu.Unlock()
		s.queue = append(actions, s.queue...)
		s.stats.PollFailures++
		if err != nil {
			return false, fmt.Errorf("rcb-snippet: poll: %w", err)
		}
		cs := closeFromHeader(resp.Header)
		s.noteCloseLocked(cs)
		if cs.reason != CloseNone && cs.reason.Retryable() {
			s.rejoinNeeded = true
		}
		return false, closeErr("poll", cs.reason, resp.StatusCode)
	}
	// A completed poll proves the agent reachable: re-arm the action push
	// path if a failed push had suspended it.
	s.mu.Lock()
	s.push.reset()
	s.mu.Unlock()
	// "If RCB-Agent indicates no new content with an empty response
	// content, Ajax-Snippet simply ... send[s] a new polling request after a
	// specified time interval."
	if len(resp.Body) == 0 {
		// An empty answer at round-trip speed to a request that asked to
		// park means the agent refused to park it (hub closed): a genuine
		// hang that timed out empty arrives at ~the server's cap, and a
		// real wake always carries content or actions. An agent whose cap
		// is under the threshold reads as refusing too — the resulting
		// interval pacing is the right degradation there as well.
		denied := wait > 0 && time.Since(pollStart) < parkDeniedThreshold
		cs := closeFromHeader(resp.Header)
		closing := cs.reason == CloseAgentClosing
		s.mu.Lock()
		s.stats.EmptyPolls++
		// An explicit AgentClosing marker is authoritative: the push
		// channel is gone however fast the answer arrived.
		s.parkDenied = denied || (wait > 0 && closing)
		s.agentClosing = closing
		s.noteCloseLocked(cs)
		s.mu.Unlock()
		return false, nil
	}
	return s.applyMessage(resp.Body)
}

// applyMessage applies one content message from the agent, whichever
// transport carried it — a poll response, a content frame or a delta frame:
// decode (full newContent or incremental deltaContent), hand the mirrored
// actions to OnUserAction, apply the document and advance the acknowledged
// docTime. It reports whether a document was applied; a message carrying
// only mirrored actions applies nothing.
//
// A delta must be based on exactly the docTime this snippet acknowledged
// (the multi-version ring's contract). Any failure — codec error, base
// mismatch, an apply that does not resolve — resets the acknowledged
// timestamp to zero, so the next poll (or the channel's 0-ack) fetches a
// full snapshot and rebuilds from scratch: the participant can render stale
// for one round trip but can never stay diverged.
func (s *Snippet) applyMessage(body []byte) (bool, error) {
	var (
		mirrored []Action
		docTime  int64
		base     int64 = -1 // acknowledged docTime a delta patches; -1 for full content
		apply    func(*dom.Document) error
	)
	if MessageIsDelta(body) {
		d, err := UnmarshalDelta(body)
		if err != nil {
			return s.resync(fmt.Errorf("bad delta content: %w", err))
		}
		mirrored, docTime, base = d.UserActions, d.DocTime, d.BaseDocTime
		apply = func(doc *dom.Document) error { return s.memo.ApplyDelta(doc, d) }
	} else {
		c, err := Unmarshal(body)
		if err != nil {
			return s.resync(fmt.Errorf("bad response content: %w", err))
		}
		mirrored, docTime = c.UserActions, c.DocTime
		if c.HasDocument {
			apply = func(doc *dom.Document) error { return s.memo.Apply(doc, c) }
		}
	}
	if s.OnUserAction != nil {
		for _, act := range mirrored {
			s.OnUserAction(act)
		}
	}
	if apply == nil {
		return false, nil
	}
	if acked := s.DocTime(); base >= 0 && base != acked {
		return s.resync(fmt.Errorf("delta base %d does not match acknowledged %d", base, acked))
	}
	start := time.Now()
	err := s.Browser.ApplyMutation(apply)
	elapsed := time.Since(start)
	s.mu.Lock()
	if err != nil {
		if base >= 0 {
			s.stats.DeltaFailures++
		}
		s.mu.Unlock()
		return s.resync(fmt.Errorf("apply content: %w", err))
	}
	s.docTime = docTime
	s.stats.LastApplyTime = elapsed
	s.stats.ContentPolls++
	if base >= 0 {
		s.stats.DeltaPolls++
	}
	s.mu.Unlock()
	return true, s.fetchContentObjects()
}

// resync abandons a content message that could not be applied: the sync
// state is reset (desync) and the error says so.
func (s *Snippet) resync(err error) (bool, error) {
	s.desync()
	return false, fmt.Errorf("rcb-snippet: %w (resyncing)", err)
}

// desync forgets the acknowledged document timestamp: the next poll reports
// ts=0, which the agent always answers with a full snapshot.
func (s *Snippet) desync() {
	s.resetMemo()
	s.mu.Lock()
	s.docTime = 0
	s.mu.Unlock()
}

// resetMemo forgets what the memo last applied. Applies read and write the
// memo inside ApplyMutation, under the participant browser's lock, so the
// reset takes that lock too. Without a loaded page there is nothing the
// memo could describe, so WithDocument's no-page error needs no handling.
func (s *Snippet) resetMemo() {
	_ = s.Browser.WithDocument(func(string, *dom.Document) error {
		s.memo = ApplyMemo{}
		return nil
	})
}

// fetchContentObjects downloads the supplementary objects the current
// document references — the post-apply step shared by the full and delta
// content paths. A no-op when FetchObjects is off.
func (s *Snippet) fetchContentObjects() error {
	if !s.FetchObjects {
		return nil
	}
	var fetches []browser.ObjectFetch
	err := s.Browser.WithDocument(func(pageURL string, doc *dom.Document) error {
		fetches = s.Browser.RenderObjects(doc, pageURL)
		return nil
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	agentHost := hostOf(s.agentURLLocked())
	s.lastObjects = fetches
	s.stats.ObjectFetches += int64(len(fetches))
	for _, f := range fetches {
		if hostOf(f.URL) == agentHost {
			s.stats.ObjectsFromAgent++
		}
	}
	s.mu.Unlock()
	return nil
}

func hostOf(u string) string { return browser.HostOf(u) }

// ApplyContentToDocument is the pure DOM transformation of Figure 5,
// exported for direct testing and for the experiment harness's M6
// measurement. A fresh memo skips nothing, so this always applies in full.
func ApplyContentToDocument(doc *dom.Document, content *NewContent) error {
	return new(ApplyMemo).Apply(doc, content)
}

// ApplyMemo remembers the payloads the last Apply installed into a
// document. The agent resends the full content on every change, so in a
// typical session most payloads are byte-identical between polls (only an
// attribute or one region changed); comparing the payload strings is a
// memcmp, while re-installing one means a full HTML re-parse. The memo is
// only valid while its document is mutated exclusively through it — the
// snippet's situation — and invalidates itself when the document changes
// identity (navigation). The zero value has applied nothing.
type ApplyMemo struct {
	doc *dom.Document
	// headOK distinguishes "never applied" from "applied an empty head":
	// the first pass must always run the head cleanup.
	headOK bool
	head   []HeadChild
	tops   [len(regions)]appliedTop
}

// appliedTop records the last applied innerHTML payload of one top-level
// element; ok distinguishes "applied empty" from "never applied".
type appliedTop struct {
	inner string
	ok    bool
}

// Apply installs content into doc, following the four-step procedure of
// Figure 5:
//
//  1. clean up the head element, keeping only Ajax-Snippet itself;
//  2. set the head element children from the new content;
//  3. clean up top-level elements the new content obsoletes;
//  4. set the remaining top-level elements from the new content.
//
// It reuses the existing DOM wherever the new payload is identical to what
// this memo previously applied.
func (m *ApplyMemo) Apply(doc *dom.Document, content *NewContent) error {
	if m.doc != doc {
		*m = ApplyMemo{doc: doc}
	}
	// Steps 1 and 2: head cleanup and rebuild — skipped entirely when the
	// new head children match what this memo last installed.
	if !m.headOK || !headChildrenEqual(m.head, content.Head) {
		rebuildHead(doc.Head(), content.Head)
		m.head = append(m.head[:0], content.Head...)
		m.headOK = true
	}

	// Step 3: clean up obsolete top-level elements. "If the current
	// document uses a body top-level element while the new content contains
	// a new webpage with a frameset top-level element, Ajax-Snippet will
	// remove the body node."
	root := doc.Root
	fields := content.regionFields()
	for _, c := range root.ChildElements() {
		if i := regionIndex(c.Tag); c.Tag != "head" && (i < 0 || *fields[i] == nil) {
			root.RemoveChild(c)
		}
	}

	// Step 4: set the remaining top elements in region order.
	for i, te := range fields {
		installRegion(root, regions[i].tag, *te, &m.tops[i])
	}
	return nil
}

// installRegion sets root's tag element from te: it finds or creates the
// element, always refreshes its attributes (cheap), and re-parses the
// innerHTML only when last records a different payload. last is updated to
// what the element now holds; a nil te installs nothing and forgets it.
// Both the snippet's full apply and the agent's delta bases
// (participantTree) install through here, so a delta's patch paths resolve
// on exactly the tree a participant holds.
func installRegion(root *dom.Node, tag string, te *TopElement, last *appliedTop) {
	if te == nil {
		*last = appliedTop{}
		return
	}
	el := root.FirstChildElement(tag)
	if el == nil {
		el = dom.NewElement(tag)
		root.AppendChild(el)
		*last = appliedTop{}
	}
	el.Attrs = append([]dom.Attr(nil), te.Attrs...)
	if last.ok && last.inner == te.Inner {
		return
	}
	dom.SetInnerHTML(el, te.Inner)
	*last = appliedTop{inner: te.Inner, ok: true}
}

// rebuildHead runs Figure 5 steps 1 and 2 against a head element: clean up
// keeping Ajax-Snippet itself (the snippet "always keeps itself as a
// <script> child element within the head element of any current document"),
// then append the new head children. Shared by the full and delta apply
// paths.
func rebuildHead(head *dom.Node, children []HeadChild) {
	var snippetEl *dom.Node
	for _, c := range head.ChildElements() {
		if c.Tag == "script" && c.AttrOr("id", "") == "rcb-ajax-snippet" {
			snippetEl = c
			break
		}
	}
	head.RemoveAllChildren()
	if snippetEl != nil {
		head.AppendChild(snippetEl)
	}
	for _, hc := range children {
		el := dom.NewElement(hc.Tag)
		el.Attrs = append([]dom.Attr(nil), hc.Attrs...)
		if hc.Inner != "" {
			dom.SetInnerHTML(el, hc.Inner)
		}
		head.AppendChild(el)
	}
}

// ApplyDelta applies an incremental deltaContent message to the document
// this memo last synchronized: patch scripts run in place against the live
// region elements, with no payload re-parse. Patched regions are forgotten
// by the memo (their serialized form is unknown after an in-place edit), so
// a later full snapshot re-parses them; untouched regions keep their memo
// entries and still skip byte-identical re-installs. Any error leaves the
// caller responsible for a full resync.
func (m *ApplyMemo) ApplyDelta(doc *dom.Document, d *DeltaContent) error {
	if m.doc != doc {
		return fmt.Errorf("delta received without an applied baseline")
	}
	if d.HasHead {
		rebuildHead(doc.Head(), d.Head)
		m.head = append(m.head[:0], d.Head...)
		m.headOK = true
	}
	root := doc.Root
	for i, patches := range d.patchFields() {
		if len(*patches) == 0 {
			continue
		}
		el := root.FirstChildElement(regions[i].tag)
		if el == nil {
			return fmt.Errorf("delta patches <%s> but the document has none", regions[i].tag)
		}
		// Invalidate before patching: a partial apply must never let a later
		// identical-payload check skip the repair re-parse.
		m.tops[i] = appliedTop{}
		if err := dom.Apply(el, *patches); err != nil {
			return err
		}
	}
	return nil
}

// headChildrenEqual reports whether two head-child lists carry identical
// payloads. dom.Attr is a comparable struct, so this is pure memcmp work.
func headChildrenEqual(a, b []HeadChild) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Tag != b[i].Tag || a[i].Inner != b[i].Inner || !attrsEqual(a[i].Attrs, b[i].Attrs) {
			return false
		}
	}
	return true
}

func attrsEqual(a, b []dom.Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Run drives the polling loop until stop is closed (paper: "The first Ajax
// request is sent after the initial HTML page is loaded ... each following
// Ajax request is triggered after the response to the previous one is
// received"). In interval mode (default) the loop sleeps PollInterval
// between polls; in long-poll mode it re-issues the next request
// immediately — the agent provides the pacing by parking the request.
//
// Failure handling is the unified backoff ladder: consecutive poll errors
// (and AgentClosing answers) double the retry delay from RetryBase up to
// RetryMax with jitter, resetting the moment a poll succeeds; a
// server-assigned Rcb-Retry-After is honored as the floor. When the agent
// closes the session with a retryable reason (restart, stale-reader kick,
// shed OVERCOMMITTED), Run rejoins and resyncs automatically — a
// non-retryable close (LEAVE, KICKED) ends the loop, the one error that
// genuinely means the session is over. Other errors are delivered to errf
// when non-nil and the loop continues — a dropped poll must not end the
// session (its piggybacked actions are requeued by PollOnce).
func (s *Snippet) Run(stop <-chan struct{}, errf func(error)) {
	interval := s.PollInterval
	if interval <= 0 {
		interval = time.Second
	}
	timer := time.NewTimer(0) // first poll fires immediately after page load
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		if s.RejoinNeeded() {
			if err := s.Rejoin(); err != nil {
				if errf != nil {
					errf(err)
				}
				if r := CloseReasonOf(err); r != CloseNone && !r.Retryable() {
					return // the agent refused re-admission for good
				}
				s.mu.Lock()
				_, join := s.backoffsLocked()
				d := max(join.Next(), s.retryAfter) // server-assigned pacing floors the rejoin delay too
				s.mu.Unlock()
				resetTimer(timer, d)
				continue
			}
		}
		if s.duplexEligible() {
			err := s.DuplexOnce(stop)
			if err != nil && errf != nil {
				errf(err)
			}
			if r := CloseReasonOf(err); r != CloseNone && !r.Retryable() {
				return // deliberate removal over the channel: session over
			}
			select {
			case <-stop:
				return
			default:
			}
			// The channel ended (refused, lost, or closed with a reason);
			// the next iteration rejoins if needed, or rides the long-poll
			// fallback until the channel breaker re-admits an upgrade attempt.
			resetTimer(timer, s.duplexDelay())
			continue
		}
		_, err := s.PollOnce()
		if err != nil && errf != nil {
			errf(err)
		}
		if r := CloseReasonOf(err); r != CloseNone && !r.Retryable() {
			return // deliberate removal (LEAVE/KICKED): the session is over
		}
		resetTimer(timer, s.runDelay(err, interval))
	}
}

// runDelay picks the pause before the next polling request: zero after a
// healthy long-poll completion (the agent paces by parking), the jittered
// poll backoff after a failure or an AgentClosing answer, the server's
// Rcb-Retry-After when it exceeds the local choice, and PollInterval for
// everything else (interval mode, park denials).
func (s *Snippet) runDelay(err error, interval time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	poll, _ := s.backoffsLocked()
	var d time.Duration
	switch {
	case err != nil, s.agentClosing:
		d = poll.Next()
	default:
		poll.Reset()
		if s.Delivery != DeliveryInterval && !s.parkDenied {
			d = 0 // hanging GET completed; re-park immediately
		} else {
			d = interval
		}
	}
	if s.retryAfter > d {
		d = s.retryAfter // the agent asked for explicit pacing (shed ladder)
	}
	return d
}

// resetTimer re-arms a loop timer whose previous fire was consumed.
// Stop-and-drain before Reset: a poll can take arbitrarily long (a parked
// long-poll, a slow WAN transfer), and Reset on a timer that might have a
// pending fire is how loops double-poll or strand a timer goroutine. Stop
// plus a non-blocking drain makes the Reset safe on every path.
func resetTimer(timer *time.Timer, d time.Duration) {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(d)
}
