package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rcb/internal/dom"
	"rcb/internal/sites"
)

// waitParked polls the agent until n long-polls are parked.
func waitParked(t *testing.T, a *Agent, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.ParkedPolls() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d polls parked, want %d", a.ParkedPolls(), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// longPollJoin connects a participant configured for hanging-GET delivery
// and warms it onto the current document version so its next poll parks.
func longPollJoin(t *testing.T, w *world, loc string, wait time.Duration) *Snippet {
	t.Helper()
	s := w.join(t, loc)
	s.Delivery = DeliveryLongPoll
	s.LongPollWait = wait
	if _, err := s.PollOnce(); err != nil {
		t.Fatalf("warm poll for %s: %v", loc, err)
	}
	return s
}

// TestLongPollWakesOnDocChange checks the core push path: a parked poll
// completes with the new content as soon as the host document changes —
// no interval in the staleness path.
func TestLongPollWakesOnDocChange(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "alice.lan", 5*time.Second)

	type result struct {
		updated bool
		err     error
		took    time.Duration
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		updated, err := s.PollOnce()
		done <- result{updated, err, time.Since(start)}
	}()
	waitParked(t, w.agent, 1)

	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-longpoll", "1")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.updated {
		t.Fatal("woken long-poll carried no content")
	}
	if r.took >= 5*time.Second {
		t.Fatalf("long-poll took the full hang (%v); wake-up did not fire", r.took)
	}
	var attr string
	err = s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		attr = doc.Body().AttrOr("data-longpoll", "")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attr != "1" {
		t.Fatalf("participant body data-longpoll = %q, want \"1\"", attr)
	}
}

// TestLongPollFanoutSingleFlight parks many participants and bumps the
// document once: every poll must wake with the same content while the
// Figure 3 pipeline runs exactly once — the single-flight invariant under
// the new wake path. Run with -race.
func TestLongPollFanoutSingleFlight(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	const n = 16
	snippets := make([]*Snippet, n)
	for i := range snippets {
		snippets[i] = longPollJoin(t, w, fmt.Sprintf("p%d.lan", i), 10*time.Second)
	}

	builds0 := w.agent.ContentBuilds()
	var wg sync.WaitGroup
	errs := make([]error, n)
	updated := make([]bool, n)
	for i, s := range snippets {
		wg.Add(1)
		go func(i int, s *Snippet) {
			defer wg.Done()
			updated[i], errs[i] = s.PollOnce()
		}(i, s)
	}
	waitParked(t, w.agent, n)

	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-fanout", "1")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("poll %d: %v", i, errs[i])
		}
		if !updated[i] {
			t.Errorf("poll %d woke without content", i)
		}
	}
	if got := w.agent.ContentBuilds() - builds0; got != 1 {
		t.Errorf("one doc change woke %d participants with %d BuildContent runs; want exactly 1", n, got)
	}
	want := snippets[0].DocTime()
	for i, s := range snippets {
		if got := s.DocTime(); got != want {
			t.Errorf("participant %d docTime = %d, want %d (all must share one prepared message)", i, got, want)
		}
	}
	if got := w.agent.ParkedPolls(); got != 0 {
		t.Errorf("%d polls still parked after the wake", got)
	}
}

// TestHostActionWakesParkedPolls checks the outbox wake path under -race:
// N concurrent long-polls all wake on one HostAction, each carrying the
// mirrored action.
func TestHostActionWakesParkedPolls(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	const n = 8
	var mirrored sync.Map
	snippets := make([]*Snippet, n)
	for i := range snippets {
		i := i
		snippets[i] = longPollJoin(t, w, fmt.Sprintf("h%d.lan", i), 10*time.Second)
		snippets[i].OnUserAction = func(act Action) {
			if act.Kind == ActionMouseMove {
				mirrored.Store(i, act)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, s := range snippets {
		wg.Add(1)
		go func(i int, s *Snippet) {
			defer wg.Done()
			_, errs[i] = s.PollOnce()
		}(i, s)
	}
	waitParked(t, w.agent, n)

	start := time.Now()
	w.agent.HostAction(Action{Kind: ActionMouseMove, X: 7, Y: 9})
	wg.Wait()
	took := time.Since(start)

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("poll %d: %v", i, errs[i])
		}
		if _, ok := mirrored.Load(i); !ok {
			t.Errorf("participant %d woke without the mirrored action", i)
		}
	}
	if took >= 10*time.Second {
		t.Fatalf("wake took the full hang (%v)", took)
	}
}

// TestDisconnectWakesParkedPoll checks the lifecycle edge: disconnecting a
// participant completes its parked poll immediately with the same 403 an
// unknown participant gets, instead of leaving it hanging until timeout.
func TestDisconnectWakesParkedPoll(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "leaver.lan", 10*time.Second)

	errCh := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := s.PollOnce()
		errCh <- err
	}()
	waitParked(t, w.agent, 1)

	w.agent.Disconnect("p1") // joins are sequential; the only participant is p1
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("disconnected long-poll returned %v, want a 403 error", err)
	}
	if took := time.Since(start); took >= 10*time.Second {
		t.Fatalf("disconnect wake took the full hang (%v)", took)
	}
}

// TestLongPollTimeoutDegradesToEmpty checks the fallback: with nothing to
// deliver, a parked poll completes at its requested hang with the §4.1.1
// empty response, counted as an empty poll like any interval-mode miss.
func TestLongPollTimeoutDegradesToEmpty(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "idle.lan", 80*time.Millisecond)

	start := time.Now()
	updated, err := s.PollOnce()
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if updated {
		t.Fatal("idle long-poll reported content")
	}
	if took < 50*time.Millisecond {
		t.Fatalf("idle long-poll returned after %v; it never parked", took)
	}
	if got := s.Stats().EmptyPolls; got != 1 {
		t.Fatalf("EmptyPolls = %d, want 1", got)
	}
}

// TestAgentCloseWakesParkedPolls checks the drain path: Agent.Close
// completes every parked poll with the empty response, and later long-polls
// answer immediately instead of parking.
func TestAgentCloseWakesParkedPolls(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "drain.lan", 10*time.Second)

	done := make(chan bool, 1)
	start := time.Now()
	go func() {
		updated, err := s.PollOnce()
		if err != nil {
			t.Error(err)
		}
		done <- updated
	}()
	waitParked(t, w.agent, 1)

	w.agent.Close()
	if updated := <-done; updated {
		t.Fatal("drained poll reported content")
	}
	if took := time.Since(start); took >= 10*time.Second {
		t.Fatalf("close wake took the full hang (%v)", took)
	}
	// After Close the agent still answers, but never parks.
	start = time.Now()
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 10*time.Second {
		t.Fatalf("post-close poll hung (%v)", took)
	}
	if got := w.agent.ParkedPolls(); got != 0 {
		t.Fatalf("%d polls parked on a closed agent", got)
	}
}

// TestActionCarryingLongPollNeverParks guards the double-apply window: the
// agent merges piggybacked actions before deciding to park, so a poll that
// carries actions must be answered immediately — a parked-then-failed
// exchange would requeue and replay actions the host already applied.
func TestActionCarryingLongPollNeverParks(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "mover.lan", 10*time.Second)

	s.PointerMove(3, 4)
	start := time.Now()
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("action-carrying poll parked for %v; must answer immediately", took)
	}
	if got := w.agent.ParkedPolls(); got != 0 {
		t.Fatalf("action-carrying poll left %d waiters parked", got)
	}
}

// TestParkDeniedPacesRun guards against the closed-hub busy loop: when the
// agent answers a park request instantly empty (hub closed, server alive),
// the snippet must report the denial so Run falls back to interval pacing
// instead of re-issuing at network speed.
func TestParkDeniedPacesRun(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "denied.lan", 10*time.Second)

	w.agent.Close()
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if !s.lastParkDenied() {
		t.Fatal("instant empty answer to a park request not flagged as denied")
	}
	// A healthy timeout at the requested hang is pacing, not denial.
	w2 := newWorld(t, func(a *Agent) { a.MaxPollWait = 250 * time.Millisecond })
	w2.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s2 := longPollJoin(t, w2, "timely.lan", 10*time.Second)
	if _, err := s2.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if s2.lastParkDenied() {
		t.Fatal("server-capped timeout misread as a park denial")
	}
}

// fakeWaiter parks a no-op waiter directly on a hub and reports when it is
// fulfilled.
func fakeWaiter(t *testing.T, h *deliveryHub, pid string) (done chan struct{}) {
	t.Helper()
	done = make(chan struct{})
	w := &pollWaiter{pid: pid, fulfill: func(*pollReply) { close(done) }}
	parked, _ := h.park(w, h.snapshot(pid), time.Minute)
	if !parked {
		t.Fatalf("waiter %s refused to park", pid)
	}
	return done
}

// TestHubDebounceCoalescesBurst is the deterministic hub-level guard for
// ROADMAP's burst-wake item: with a debounce window, M rapid notifications
// produce at most two fan-outs — one leading wake, one trailing wake with
// the latest state.
func TestHubDebounceCoalescesBurst(t *testing.T) {
	const window = 150 * time.Millisecond
	h := newDeliveryHub()

	// Leading edge: a notification after a quiet period wakes immediately.
	d1 := fakeWaiter(t, h, "p1")
	h.notifyAllDebounced(window)
	select {
	case <-d1:
	case <-time.After(2 * time.Second):
		t.Fatal("leading-edge wake did not fire")
	}

	// Burst: many notifications inside the window coalesce into exactly one
	// trailing wake.
	d2 := fakeWaiter(t, h, "p2")
	for i := 0; i < 10; i++ {
		h.notifyAllDebounced(window)
	}
	select {
	case <-d2:
		t.Fatal("burst notification woke the waiter inside the window")
	case <-time.After(window / 3):
	}
	select {
	case <-d2:
	case <-time.After(2 * time.Second):
		t.Fatal("trailing wake never fired")
	}
	if got := h.wakeFanouts(); got != 2 {
		t.Fatalf("11 notifications produced %d fan-outs, want 2", got)
	}
	// The notification counter advanced on every call: parks with stale
	// snapshots must still be refused mid-burst.
	snap := h.snapshot("p3")
	h.notifyAllDebounced(window)
	w := &pollWaiter{pid: "p3", fulfill: func(*pollReply) {}}
	if parked, retry := h.park(w, snap, time.Minute); parked || !retry {
		t.Fatalf("stale-snapshot park during debounce: parked=%v retry=%v", parked, retry)
	}
	h.close()
}

// TestHubPreWakeRunsOnTrailingWake pins the precompute seam: the hub's
// preWake hook fires on the trailing edge of a debounced wake, sees exactly
// the waiters about to be woken, and completes before any of them is
// fulfilled — the ordering warmWakeDeltas relies on to warm the delta cache
// ahead of the fleet.
func TestHubPreWakeRunsOnTrailingWake(t *testing.T) {
	const window = 100 * time.Millisecond
	h := newDeliveryHub()
	var mu sync.Mutex
	var sawWoken int
	var preBeforeFulfill bool
	h.preWake = func(woken []subscriber) {
		mu.Lock()
		sawWoken += len(woken)
		mu.Unlock()
	}

	// Leading edge with nobody parked: no waiters, hook must not fire.
	h.notifyAllDebounced(window)

	done := make(chan struct{})
	w := &pollWaiter{pid: "p1", ts: 7, deltaOK: true, fulfill: func(*pollReply) {
		mu.Lock()
		preBeforeFulfill = sawWoken > 0
		mu.Unlock()
		close(done)
	}}
	if parked, _ := h.park(w, h.snapshot("p1"), time.Minute); !parked {
		t.Fatal("waiter refused to park")
	}

	// Inside the window: this notification arms the trailing wake, which
	// must run the hook over the collected waiter before fulfilling it.
	h.notifyAllDebounced(window)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("trailing wake never fired")
	}
	mu.Lock()
	defer mu.Unlock()
	if sawWoken != 1 {
		t.Fatalf("preWake saw %d waiters, want exactly the 1 parked", sawWoken)
	}
	if !preBeforeFulfill {
		t.Fatal("waiter was fulfilled before preWake ran; precompute would race the fleet")
	}
	h.close()
}

// TestBurstWakeDebounceEndToEnd drives the same property over the real
// stack: parked long-poll participants, a burst of host mutations, at most
// two fan-outs, and every participant converging on the final version.
func TestBurstWakeDebounceEndToEnd(t *testing.T) {
	w := newWorld(t, func(a *Agent) { a.WakeDebounce = 100 * time.Millisecond })
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	const n = 4
	snippets := make([]*Snippet, n)
	for i := range snippets {
		snippets[i] = longPollJoin(t, w, fmt.Sprintf("b%d.lan", i), 10*time.Second)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, s := range snippets {
		wg.Add(1)
		go func(i int, s *Snippet) {
			defer wg.Done()
			// Poll until this participant reaches the final version.
			for {
				updated, err := s.PollOnce()
				if err != nil {
					errs[i] = err
					return
				}
				if updated && s.Stats().ContentPolls >= 2 {
					return
				}
			}
		}(i, s)
	}
	waitParked(t, w.agent, n)

	const bumps = 8
	for tick := 1; tick <= bumps; tick++ {
		err := w.host.ApplyMutation(func(doc *dom.Document) error {
			doc.Body().SetAttr("data-burst", fmt.Sprint(tick))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("participant %d: %v", i, err)
		}
	}
	if got := w.agent.WakeFanouts(); got > 2 {
		t.Errorf("%d rapid bumps produced %d fan-outs, want ≤ 2", bumps, got)
	}
	// Everyone holds the final content.
	final := fmt.Sprint(bumps)
	for i, s := range snippets {
		// The last wake served the latest version; participants that stopped
		// at an intermediate version poll once more to drain.
		for {
			var attr string
			err := s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
				attr = doc.Body().AttrOr("data-burst", "")
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if attr == final {
				break
			}
			if _, err := s.PollOnce(); err != nil {
				t.Fatalf("participant %d drain poll: %v", i, err)
			}
		}
	}
}

// TestIntervalPollUnaffectedByHub checks backward compatibility: a default
// (interval-mode) snippet never parks and still sees immediate empty
// responses — the paper's protocol byte-for-byte.
func TestIntervalPollUnaffectedByHub(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := w.join(t, "classic.lan")

	if updated, err := s.PollOnce(); err != nil || !updated {
		t.Fatalf("first poll: updated=%v err=%v", updated, err)
	}
	start := time.Now()
	updated, err := s.PollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if updated {
		t.Fatal("no-change poll reported content")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("interval poll blocked for %v", took)
	}
	if got := w.agent.ParkedPolls(); got != 0 {
		t.Fatalf("interval poll parked (%d waiters)", got)
	}
}
