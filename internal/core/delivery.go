package core

// The delivery hub: RCB-Agent's one subscriber set, behind both push tiers.
//
// The paper's protocol answers every polling request immediately — "if no
// new content needs to be sent back, RCB-Agent sends a response with empty
// content ... to avoid hanging requests" (§4.1.1) — which makes the polling
// interval the staleness floor. The hub inverts that trade. A participant
// subscribes in one of two ways: a poll that finds nothing new may park
// (httpwire.AsyncHandler), or a persistent channel (channel.go) attaches for
// its lifetime. Either way it is woken when the host document changes, a
// mirror action lands in the participant's outbox, the participant is
// disconnected, or the agent closes. A parked poll is one-shot: a wake
// removes and fulfills it, and its maximum hang degrades exactly to the
// paper's empty response, so a long-poll client is never worse off than an
// interval one. A channel stays registered; its wake is a coalescing nudge
// of its writer, which re-runs the same delivery step.
//
// Correctness hinges on closing the check-then-park window: between a
// poll's "nothing new" check and its registration, a document change or
// broadcast could slip by and the waiter would sleep through its own
// wake-up. The hub therefore keeps monotonic notification counters (one
// global, one per participant); a poll snapshots them before its final
// check and park refuses registration when either counter moved, forcing
// the caller to re-check. A channel needs no snapshot: a wake that lands
// mid-flush fills its cap-1 notify slot and forces another pass.

import (
	"sync"
	"time"
)

// subscriber is one delivery endpoint in the hub's table: a parked poll
// (*pollWaiter) or an attached channel (*agentChannel).
type subscriber interface {
	// signal wakes the subscriber; closing reports agent shutdown.
	signal(closing bool)
	// ackedBase reports the subscriber's participant and the docTime its
	// next delivery would patch, or base 0 when it takes full snapshots.
	ackedBase() (pid string, base int64)
}

// pollWaiter is one parked polling request: the participant it belongs to,
// the timestamp it reported, and the responder that completes the hanging
// HTTP exchange. Ownership of the response is decided by hub-table
// presence: whoever removes the waiter from the hub (wake, timeout, or
// close) must respond, and nobody else may.
type pollWaiter struct {
	pid     string
	ts      int64
	deltaOK bool // the parked request opted into deltaContent responses
	fulfill func(reply *pollReply)
	timer   *time.Timer
}

// signal fulfills the detached waiter: on its own goroutine for a wake, so
// the notifier (typically the host browser's mutation path) never blocks
// on content generation or socket writes; inline on shutdown.
func (w *pollWaiter) signal(closing bool) {
	w.timer.Stop()
	if closing {
		w.fulfill(&pollReply{closed: true})
		return
	}
	go w.fulfill(&pollReply{})
}

func (w *pollWaiter) ackedBase() (string, int64) {
	if !w.deltaOK {
		return w.pid, 0
	}
	return w.pid, w.ts
}

// pollReply tells a woken waiter why it woke, so the fulfiller can choose
// between re-running the content check and degrading to a fixed response.
type pollReply struct {
	timedOut bool
	closed   bool
}

// hubSnapshot is the pair of notification counters a poll observed before
// its final no-new-content check.
type hubSnapshot struct {
	global uint64
	pid    uint64
}

// hubEntry is one participant's row in the hub's subscriber table.
type hubEntry struct {
	polls []*pollWaiter // one-shot: detached by the wake that reaches them
	ch    *agentChannel // persistent: stays until its session ends
}

// deliveryHub tracks every subscriber and the notification counters that
// close the check-then-park race. All methods are safe for concurrent use.
type deliveryHub struct {
	mu     sync.Mutex
	closed bool
	global uint64
	// pidSeqs holds per-participant notification counters. Entries are
	// kept after disconnect (a few bytes per participant ever seen) so a
	// racing park cannot mistake a reset counter for "no event".
	pidSeqs map[string]uint64
	// subs is the subscriber table, keyed by pid; an entry is dropped once
	// it holds neither a parked poll nor a channel.
	subs  map[string]hubEntry
	polls int // parked polls
	chans int // attached channels

	// Burst coalescing (notifyAllDebounced): lastWake stamps the most
	// recent global fan-out; wakeArmed marks a trailing wake already
	// scheduled on wakeTimer. fanouts counts global wake rounds that woke
	// at least one parked poll — the observable the debounce tests key on.
	lastWake  time.Time
	wakeArmed bool
	wakeTimer *time.Timer
	fanouts   int64

	// preWake, when set, runs between collecting a trailing wake's
	// subscribers and signalling them — the window where the deltas the
	// woken fleet is about to request can be precomputed once. Installed at
	// construction, never mutated afterwards, so reads need no lock. It
	// runs on the wake timer's own goroutine, off every request path.
	preWake func(woken []subscriber)
}

func newDeliveryHub() *deliveryHub {
	return &deliveryHub{
		pidSeqs: make(map[string]uint64),
		subs:    make(map[string]hubEntry),
	}
}

// snapshot records the counters for pid ahead of a no-new-content check.
func (h *deliveryHub) snapshot(pid string) hubSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return hubSnapshot{global: h.global, pid: h.pidSeqs[pid]}
}

// park registers w unless an event arrived after snap was taken. It returns
// (parked, retry): (true, _) means w is registered and its owner will
// respond later; (false, true) means an event slipped in and the caller
// must re-run its content check; (false, false) means the hub is closed and
// the caller should answer immediately, interval-style.
func (h *deliveryHub) park(w *pollWaiter, snap hubSnapshot, maxWait time.Duration) (parked, retry bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return false, false
	}
	if h.global != snap.global || h.pidSeqs[w.pid] != snap.pid {
		return false, true
	}
	e := h.subs[w.pid]
	e.polls = append(e.polls, w)
	h.subs[w.pid] = e
	h.polls++
	// The timeout path claims the waiter through the same remove() token
	// as every other wake, so a racing notify and timer fire resolve to
	// exactly one response. AfterFunc's callback cannot run before this
	// assignment is visible: it immediately contends on h.mu, which we
	// hold until park returns.
	w.timer = time.AfterFunc(maxWait, func() {
		if h.remove(w) {
			w.fulfill(&pollReply{timedOut: true})
		}
	})
	return true, false
}

// remove unregisters w, reporting whether the caller won ownership of the
// response (exactly one remover does).
func (h *deliveryHub) remove(w *pollWaiter) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.subs[w.pid]
	for i, x := range e.polls {
		if x != w {
			continue
		}
		e.polls[i] = e.polls[len(e.polls)-1]
		e.polls[len(e.polls)-1] = nil
		e.polls = e.polls[:len(e.polls)-1]
		h.polls--
		h.storeLocked(w.pid, e)
		return true
	}
	return false
}

// attach registers ch as its participant's channel. A newer upgrade
// replaces an older channel (typically a client re-upgrading after a
// fallback, its old socket half-dead); the replaced one is torn down
// silently.
func (h *deliveryHub) attach(ch *agentChannel) {
	h.mu.Lock()
	e := h.subs[ch.pid]
	old := e.ch
	e.ch = ch
	h.subs[ch.pid] = e
	if old == nil {
		h.chans++
	}
	h.mu.Unlock()
	if old != nil {
		old.shutdown()
	}
}

// detach unregisters ch unless a newer channel already replaced it.
func (h *deliveryHub) detach(ch *agentChannel) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e := h.subs[ch.pid]; e.ch == ch {
		e.ch = nil
		h.chans--
		h.storeLocked(ch.pid, e)
	}
}

// storeLocked writes back pid's entry, dropping it once it holds neither a
// parked poll nor a channel. Callers hold h.mu.
func (h *deliveryHub) storeLocked(pid string, e hubEntry) {
	if len(e.polls) == 0 && e.ch == nil {
		delete(h.subs, pid)
		return
	}
	h.subs[pid] = e
}

// counts reports how many polls are parked and how many channels attached.
func (h *deliveryHub) counts() (polls, chans int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.polls, h.chans
}

// notifyAll wakes every subscriber — a new document version exists (or is
// about to: woken polls and channel writers re-check through the
// single-flight generation, so N wakes still cost one BuildContent).
func (h *deliveryHub) notifyAll() {
	h.mu.Lock()
	h.global++
	woken := h.roundLocked()
	h.mu.Unlock()
	signalAll(woken, false)
}

// notifyAllDebounced is notifyAll with burst coalescing: the first change
// after a quiet period wakes the fleet immediately, and every further
// change inside the debounce window folds into a single trailing wake that
// serves the latest version — so M rapid host mutations cost at most two
// fan-outs instead of M. The notification counter still advances on every
// call, so the check-then-park race stays closed: a poll arriving
// mid-window re-checks inline and sees the newest content without any wake.
// A zero debounce is plain notifyAll.
func (h *deliveryHub) notifyAllDebounced(debounce time.Duration) {
	if debounce <= 0 {
		h.notifyAll()
		return
	}
	h.mu.Lock()
	h.global++
	if h.closed || h.wakeArmed {
		h.mu.Unlock()
		return
	}
	if since := time.Since(h.lastWake); since < debounce {
		h.wakeArmed = true
		h.wakeTimer = time.AfterFunc(debounce-since, h.trailingWake)
		h.mu.Unlock()
		return
	}
	woken := h.roundLocked()
	h.mu.Unlock()
	signalAll(woken, false)
}

// trailingWake flushes the coalesced tail of a mutation burst. Running on
// the wake timer's goroutine — not a host-mutation or request path — it is
// the one place the fleet's deltas can be precomputed before fan-out.
func (h *deliveryHub) trailingWake() {
	h.mu.Lock()
	h.wakeArmed = false
	if h.closed {
		h.mu.Unlock()
		return
	}
	woken := h.roundLocked()
	h.mu.Unlock()
	if h.preWake != nil && len(woken) > 0 {
		h.preWake(woken)
	}
	signalAll(woken, false)
}

// roundLocked starts one global wake round, counting it as a fan-out when
// it reaches a parked poll. Callers hold h.mu.
func (h *deliveryHub) roundLocked() []subscriber {
	h.lastWake = time.Now()
	if h.polls > 0 {
		h.fanouts++
	}
	return h.collectAllLocked()
}

// collectAllLocked detaches every parked poll and lists them with every
// attached channel. Callers hold h.mu.
func (h *deliveryHub) collectAllLocked() []subscriber {
	woken := make([]subscriber, 0, h.polls+h.chans)
	for pid, e := range h.subs {
		for _, w := range e.polls {
			woken = append(woken, w)
		}
		if e.ch != nil {
			woken = append(woken, e.ch)
		}
		h.storeLocked(pid, hubEntry{ch: e.ch})
	}
	h.polls = 0
	return woken
}

// wakeFanouts reports how many global wake rounds actually woke parked
// polls.
func (h *deliveryHub) wakeFanouts() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fanouts
}

func signalAll(woken []subscriber, closing bool) {
	for _, s := range woken {
		s.signal(closing)
	}
}

// notifyPID wakes the subscribers of one participant — a mirror action
// landed in its outbox, or it was disconnected. except, when non-nil, is a
// channel handing actions back after a failed flush: it must not wake
// itself, or a persistent failure would spin its writer.
func (h *deliveryHub) notifyPID(pid string, except *agentChannel) {
	h.mu.Lock()
	h.pidSeqs[pid]++
	e := h.subs[pid]
	h.polls -= len(e.polls)
	h.storeLocked(pid, hubEntry{ch: e.ch})
	h.mu.Unlock()
	for _, w := range e.polls {
		w.signal(false)
	}
	if e.ch != nil && e.ch != except {
		e.ch.signal(false)
	}
}

// close signals every subscriber with the shutdown reply and refuses future
// parks: parked polls complete with the empty response marked AgentClosing
// and channels close with AGENT_CLOSING. Polls arriving afterwards are
// answered immediately, interval-style, so a closed agent still speaks the
// paper's protocol.
func (h *deliveryHub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	if h.wakeTimer != nil {
		h.wakeTimer.Stop()
	}
	h.wakeArmed = false
	woken := h.collectAllLocked()
	h.mu.Unlock()
	signalAll(woken, true)
}
