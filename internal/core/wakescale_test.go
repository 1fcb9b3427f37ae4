package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// TestWakeDebounceMassPark is the thundering-herd regression test at the
// agent boundary: park a thousand long-polls, land ONE host mutation, and
// require that the debounced hub wakes the herd in at most two fan-out
// rounds and that the single-flight guard builds content exactly once —
// the invariant that keeps a mass wake O(participants) in deliveries but
// O(1) in rendering work. Runs race-clean (make race covers this package).
func TestWakeDebounceMassPark(t *testing.T) {
	parked := 1000
	if testing.Short() {
		parked = 200
	}
	w := newWorld(t, func(a *Agent) {
		a.WakeDebounce = 10 * time.Millisecond
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	// Join at the wire level and take one synchronous full sync each, so
	// every participant acknowledges the current docTime and the next poll
	// has nothing to deliver — the parking precondition.
	polls := make([]*httpwire.Request, parked)
	for i := range polls {
		join := w.agent.ServeWire(httpwire.NewRequest("GET", "/"))
		if join.StatusCode != 200 {
			t.Fatalf("join %d returned %d", i, join.StatusCode)
		}
		cookie := join.Header.Get("Set-Cookie")
		pid, _, _ := strings.Cut(strings.TrimPrefix(cookie, "rcbpid="), ";")
		if pid == "" {
			t.Fatalf("join %d: no pid in Set-Cookie %q", i, cookie)
		}
		req := httpwire.NewRequest("POST", "/poll")
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		req.Header.Set("Cookie", "rcbpid="+pid)
		req.Body = []byte("ts=0")
		if resp := w.agent.ServeWire(req); resp.StatusCode != 200 {
			t.Fatalf("initial sync %d returned %d", i, resp.StatusCode)
		}
		polls[i] = req
	}
	base := w.agent.LatestDocTime()
	if base == 0 {
		t.Fatal("no prepared build after initial syncs")
	}

	// Park the herd: every poll acknowledges the current build and asks
	// for a long hang.
	done := make(chan *httpwire.Response, parked)
	for _, req := range polls {
		req.Body = []byte("ts=" + strconv.FormatInt(base, 10) + "&wait=10000")
		w.agent.ServeWireAsync(req, func(resp *httpwire.Response) { done <- resp })
	}
	deadline := time.Now().Add(10 * time.Second)
	for w.agent.ParkedPolls() < parked {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d polls parked", w.agent.ParkedPolls(), parked)
		}
		time.Sleep(time.Millisecond)
	}

	fanouts0 := w.agent.WakeFanouts()
	builds0 := w.agent.ContentBuilds()

	// One bump.
	if err := w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-herd", "woken")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Every parked poll completes with the new content.
	for i := 0; i < parked; i++ {
		select {
		case resp := <-done:
			if resp.StatusCode != 200 {
				t.Fatalf("woken poll returned %d", resp.StatusCode)
			}
			if len(resp.Body) == 0 {
				t.Fatalf("woken poll %d completed empty: the bump was slept through", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("poll %d/%d never woke", i, parked)
		}
	}

	if d := w.agent.WakeFanouts() - fanouts0; d < 1 || d > 2 {
		t.Errorf("one bump of %d parked polls took %d fan-out rounds, want 1..2", parked, d)
	}
	if d := w.agent.ContentBuilds() - builds0; d != 1 {
		t.Errorf("one bump of %d parked polls cost %d content builds, want exactly 1 "+
			"(single-flight guard regressed: a mass wake must share one render)", parked, d)
	}
	if got := w.agent.LatestDocTime(); got <= base {
		t.Errorf("prepared docTime %d did not advance past %d", got, base)
	}
}

// attachedChannel waits until exactly one channel is attached to the hub
// and acknowledges base, and returns it.
func attachedChannel(t *testing.T, a *Agent, base int64) *agentChannel {
	t.Helper()
	var ch *agentChannel
	waitUntil(t, "channel acknowledging the base", func() bool {
		a.hub.mu.Lock()
		ch = nil
		for _, e := range a.hub.subs {
			if e.ch != nil {
				ch = e.ch
			}
		}
		a.hub.mu.Unlock()
		if ch == nil {
			return false
		}
		_, b := ch.ackedBase()
		return b == base
	})
	return ch
}

// TestWakePrecomputeWarmsDeltas pins the wake-time precomputation: run the
// hub's preWake hook over a delta-advertising fleet on one acked base —
// parked polls and an attached channel alike, exactly as the trailing wake
// collects them — and require it to build the new content and the fleet's
// (base, target) delta before anything is served. The whole woken fleet then
// rides warm cache hits: the diff runs exactly once per distinct base, the
// single content build is shared, and the channel's frame is a delta too.
func TestWakePrecomputeWarmsDeltas(t *testing.T) {
	const fleet = 16
	// The navigation below opens a long debounce window, so the mutation's
	// wake is held back and nothing — the channel included — computes the
	// new delta before the precompute does.
	w := newWorld(t, func(a *Agent) { a.WakeDebounce = time.Minute })
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	polls := make([]*httpwire.Request, fleet)
	pids := make([]string, fleet)
	for i := range polls {
		join := w.agent.ServeWire(httpwire.NewRequest("GET", "/"))
		if join.StatusCode != 200 {
			t.Fatalf("join %d returned %d", i, join.StatusCode)
		}
		cookie := join.Header.Get("Set-Cookie")
		pid, _, _ := strings.Cut(strings.TrimPrefix(cookie, "rcbpid="), ";")
		pids[i] = pid
		req := httpwire.NewRequest("POST", "/poll")
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		req.Header.Set("Cookie", "rcbpid="+pid)
		req.Body = []byte("ts=0")
		if resp := w.agent.ServeWire(req); resp.StatusCode != 200 {
			t.Fatalf("initial sync %d returned %d", i, resp.StatusCode)
		}
		polls[i] = req
	}
	base := w.agent.LatestDocTime()
	s, _, _ := duplexJoin(t, w, "chan.lan")
	ch := attachedChannel(t, w.agent, base)
	waitUntil(t, "channel's initial snapshot applied", func() bool { return s.DocTime() == base })

	// The host mutates; no poll has landed yet, so no build exists for the
	// new version when the trailing wake would fire.
	if err := w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-tick", "woken")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	diffs0, builds0, served0 := w.agent.DiffBuilds(), w.agent.ContentBuilds(), w.agent.DeltasServed()

	// The subscribers the trailing wake would have collected: the whole
	// fleet parked on one base with deltas advertised, plus the channel.
	woken := []subscriber{ch}
	for _, pid := range pids {
		woken = append(woken, &pollWaiter{pid: pid, ts: base, deltaOK: true})
	}
	w.agent.warmWakeDeltas(woken)

	if d := w.agent.ContentBuilds() - builds0; d != 1 {
		t.Fatalf("precompute ran %d content builds, want exactly 1", d)
	}
	if d := w.agent.DiffBuilds() - diffs0; d != 1 {
		t.Fatalf("precompute ran %d diffs for one distinct base, want exactly 1", d)
	}
	if got := s.DocTime(); got != base {
		t.Fatalf("channel moved to docTime %d inside the debounce window; want it held at %d until its wake", got, base)
	}

	// The channel's wake: one delta frame from the warm cache.
	ch.signal(false)
	waitUntil(t, "channel delivery", func() bool { return s.DocTime() > base })
	if d := w.agent.DeltasServed() - served0; d != 1 {
		t.Fatalf("channel wake served %d deltas, want its one frame as a delta", d)
	}
	if d := w.agent.DiffBuilds() - diffs0; d != 1 {
		t.Fatalf("channel frame re-ran the diff: %d total, want 1 (cache was cold)", d)
	}

	// Fan-out: every poll must be a warm hit — delta bytes out, zero
	// additional diffs or builds.
	for i, req := range polls {
		req.Body = []byte("ts=" + strconv.FormatInt(base, 10) + "&delta=1")
		resp := w.agent.ServeWire(req)
		if resp.StatusCode != 200 {
			t.Fatalf("woken poll %d returned %d", i, resp.StatusCode)
		}
		if !MessageIsDelta(resp.Body) {
			t.Fatalf("woken poll %d fell off the delta path:\n%s", i, resp.Body)
		}
	}
	if d := w.agent.DiffBuilds() - diffs0; d != 1 {
		t.Errorf("fleet fan-out re-ran the diff: %d total, want 1 (cache was cold)", d)
	}
	if d := w.agent.ContentBuilds() - builds0; d != 1 {
		t.Errorf("fleet fan-out re-built content: %d total, want 1", d)
	}
	if d := w.agent.DeltasServed() - served0; d != fleet+1 {
		t.Errorf("DeltasServed advanced %d, want %d: every woken poll plus the channel", d, fleet+1)
	}
}
