package main

import (
	"fmt"
	"net"
	"slices"
	"time"

	"rcb/internal/browser"
	"rcb/internal/core"
	"rcb/internal/dom"
)

// drain waits, after the load generator stops, until every expected delivery has
// arrived and every fired action has reached the policy, or limit passes.
// What is still missing then is a failure.
func (s *session) drain(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		missing := s.missing()
		for _, e := range s.actions.all() {
			if s.policy.counts[e.seq].Load() == 0 {
				missing++
			}
		}
		if missing == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// audit is the run's correctness gate, after the drain:
//   - every fired action reached the agent's policy exactly once;
//   - no participant saw a terminal close or a bare 4xx/5xx, and no
//     delivery is still missing;
//   - once every participant's docTime has settled, its document is
//     byte-identical (dom.OuterHTML) to a freshly joined reference replica.
//
// tamper alters one participant's document behind its snippet first — the
// benchmark's self-test that the gate trips.
func (s *session) audit(tamper bool) []string {
	viols := s.violations()
	for _, e := range s.actions.all() {
		if n := s.policy.counts[e.seq].Load(); n != 1 {
			viols = append(viols, fmt.Sprintf("action %d applied %d times, want exactly once", e.seq, n))
		}
	}
	if n := s.policy.unknown.Load(); n > 0 {
		viols = append(viols, fmt.Sprintf("policy saw %d actions nobody fired", n))
	}
	if n := s.missing(); n > 0 {
		viols = append(viols, fmt.Sprintf("%d deliveries never arrived", n))
	}

	var live []*participant
	for _, p := range s.participants() {
		if s.active[p.slot].Load() {
			live = append(live, p)
		}
	}
	// Every change has arrived; wait until no participant's acknowledged
	// docTime moves any more, so the documents compared below are final.
	// The docTime itself may trail the agent's latest build without the
	// content differing: the agent can build one document version twice,
	// and participants keep the first build's stamp. That is counted, and
	// the byte comparison decides convergence.
	const quiet = 200 * time.Millisecond
	docTimes := func() []int64 {
		ts := make([]int64, len(live))
		for i, p := range live {
			ts[i] = p.snip.DocTime()
		}
		return ts
	}
	deadline := time.Now().Add(10 * time.Second)
	last, since := docTimes(), time.Now()
	for time.Since(since) < quiet {
		if time.Now().After(deadline) {
			return append(viols, "participant docTimes still moving 10 s after the drain")
		}
		time.Sleep(10 * time.Millisecond)
		if cur := docTimes(); !slices.Equal(cur, last) {
			last, since = cur, time.Now()
		}
	}
	latest := s.agent.LatestDocTime()
	for _, t := range last {
		if t != latest {
			s.staleDocTimes.Add(1)
		}
	}

	if tamper && len(live) > 0 {
		_ = live[len(live)-1].b.WithDocument(func(_ string, doc *dom.Document) error {
			doc.Body().SetAttr("data-tampered", "1")
			return nil
		})
	}
	docs := make([]string, len(live))
	for i, p := range live {
		_ = p.b.WithDocument(func(_ string, doc *dom.Document) error {
			docs[i] = dom.OuterHTML(doc.Root)
			return nil
		})
	}
	// The reference needs a seat: at the admission cap, the last ordinary
	// participant leaves once its document is recorded.
	if s.agent.ParticipantCount() >= maxParticipants && len(live) > s.w.typists {
		live[len(live)-1].leave()
	}
	ref, err := s.reference()
	if err != nil {
		return append(viols, fmt.Sprintf("reference join: %v", err))
	}
	for i, p := range live {
		if docs[i] != ref {
			viols = append(viols, fmt.Sprintf("participant %d diverged from the reference (%d vs %d bytes)", p.slot, len(docs[i]), len(ref)))
		}
	}
	return viols
}

// missing counts deliveries still pending.
func (s *session) missing() int {
	n := 0
	for _, t := range []*table{s.edits, s.navs, s.actions} {
		for _, e := range t.all() {
			for i := range e.arrivals {
				if e.arrivals[i].Load() == pending {
					n++
				}
			}
		}
	}
	return n
}

// reference joins a fresh replica, takes one full sync, and serializes its
// document — the oracle every participant must match byte for byte.
func (s *session) reference() (string, error) {
	rb := browser.New("ref.lan", func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) })
	defer rb.Close()
	snip := core.NewSnippet(rb, "http://"+s.addr, s.key)
	if err := snip.Join(); err != nil {
		return "", err
	}
	if _, err := snip.PollOnce(); err != nil {
		return "", err
	}
	var html string
	err := rb.WithDocument(func(_ string, doc *dom.Document) error {
		html = dom.OuterHTML(doc.Root)
		return nil
	})
	return html, err
}
