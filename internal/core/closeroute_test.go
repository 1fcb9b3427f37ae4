package core

import (
	"bufio"
	"net"
	"strconv"
	"testing"
	"time"

	"rcb/internal/browser"
	"rcb/internal/httpwire"
	"rcb/internal/netsim"
)

// TestSnippetCloseRoutingParity is the snippet-side companion of
// TestCloseFrameReasonParity: every close reason (and the reason-less case)
// is delivered through each place a snippet can receive one — a terminal
// poll response, a refused /channel upgrade, a FrameClose on a live channel
// and a refused join — and the snippet must record it the same way
// everywhere and route it the way its transport requires: a poll rejoins
// on any retryable reason, the channel degrades quietly on load refusals,
// and a join follows only MOVED.
func TestSnippetCloseRoutingParity(t *testing.T) {
	const (
		relocate  = "moved.lan:3001"
		retry     = 123 * time.Millisecond
		agentHost = "agent.lan:3000"
	)
	// outcome is what one delivery must leave behind.
	type outcome struct {
		rejoin  bool        // rejoinNeeded
		suspend bool        // channel upgrades paused (long-poll fallback)
		err     CloseReason // reason of the returned error; CloseNone with errNil
		errNil  bool
	}
	cases := []struct {
		reason  CloseReason
		poll    outcome
		channel outcome // refused upgrade and FrameClose route identically
		join    outcome
	}{
		{CloseLeave, outcome{err: CloseLeave}, outcome{err: CloseLeave}, outcome{err: CloseLeave}},
		{CloseKicked, outcome{err: CloseKicked}, outcome{err: CloseKicked}, outcome{err: CloseKicked}},
		{CloseSessionFull, outcome{rejoin: true, err: CloseSessionFull}, outcome{suspend: true, errNil: true}, outcome{err: CloseSessionFull}},
		{CloseOvercommitted, outcome{rejoin: true, err: CloseOvercommitted}, outcome{suspend: true, errNil: true}, outcome{err: CloseOvercommitted}},
		{CloseStaleReader, outcome{rejoin: true, err: CloseStaleReader}, outcome{rejoin: true, err: CloseStaleReader}, outcome{err: CloseStaleReader}},
		{CloseAgentClosing, outcome{rejoin: true, err: CloseAgentClosing}, outcome{suspend: true, errNil: true}, outcome{err: CloseAgentClosing}},
		{CloseMoved, outcome{rejoin: true, err: CloseMoved}, outcome{rejoin: true, err: CloseMoved}, outcome{rejoin: true, err: CloseMoved}},
		{CloseUnknown, outcome{rejoin: true, err: CloseUnknown}, outcome{rejoin: true, err: CloseUnknown}, outcome{err: CloseUnknown}},
		// No reason at all: a bare failure. The poll and the upgrade record
		// nothing but the retry hint; a reason-less close frame is a
		// protocol violation and reads as UNKNOWN.
		{CloseNone, outcome{err: CloseNone}, outcome{suspend: true, errNil: true}, outcome{err: CloseNone}},
	}
	if len(cases) != len(closeReasonNames)+1 {
		t.Fatalf("table covers %d cases, want every reason plus none", len(cases))
	}

	status := func(r CloseReason) int {
		if r == CloseNone {
			return 503
		}
		return r.StatusCode()
	}
	terminal := func(r CloseReason) *httpwire.Response {
		resp := httpwire.NewResponse(status(r), "text/plain", []byte("refused\n"))
		if r != CloseNone {
			resp.Header.Set(CloseReasonHeader, r.String())
		}
		resp.Header.Set(RetryAfterHeader, strconv.FormatInt(retry.Milliseconds(), 10))
		resp.Header.Set(RelocateHeader, relocate)
		return resp
	}
	// serve starts a fake agent answering every request with handler and
	// returns a duplex-mode snippet pointed at it.
	serve := func(t *testing.T, handler httpwire.HandlerFunc) *Snippet {
		t.Helper()
		network := netsim.NewNetwork()
		l, err := network.Listen(agentHost)
		if err != nil {
			t.Fatal(err)
		}
		srv := &httpwire.Server{Handler: handler}
		srv.Start(l)
		t.Cleanup(srv.Close)
		pb := browser.New("p.lan", network.Dialer("p.lan"))
		t.Cleanup(pb.Close)
		s := NewSnippet(pb, "http://"+agentHost, "")
		s.Delivery = DeliveryDuplex
		return s
	}
	check := func(t *testing.T, s *Snippet, err error, recorded CloseReason, want outcome, retryRecorded bool) {
		t.Helper()
		if got := s.LastCloseReason(); got != recorded {
			t.Errorf("LastCloseReason = %v, want %v", got, recorded)
		}
		switch {
		case want.errNil && err != nil:
			t.Errorf("error = %v, want nil (quiet degradation)", err)
		case !want.errNil && err == nil:
			t.Errorf("error = nil, want one carrying %v", want.err)
		case !want.errNil && CloseReasonOf(err) != want.err:
			t.Errorf("error reason = %v (%v), want %v", CloseReasonOf(err), err, want.err)
		}
		if got := s.RejoinNeeded(); got != want.rejoin {
			t.Errorf("rejoinNeeded = %v, want %v", got, want.rejoin)
		}
		if got := !s.duplexEligible(); got != want.suspend {
			t.Errorf("channel suspended = %v, want %v", got, want.suspend)
		}
		if got := s.Stats().DuplexFallbacks; got != map[bool]int64{false: 0, true: 1}[want.suspend] {
			t.Errorf("DuplexFallbacks = %d, want suspension %v", got, want.suspend)
		}
		s.mu.Lock()
		relocateTo, retryAfter := s.relocateTo, s.retryAfter
		s.mu.Unlock()
		wantRelocate := ""
		if recorded == CloseMoved {
			wantRelocate = "http://" + relocate
		}
		if relocateTo != wantRelocate {
			t.Errorf("relocateTo = %q, want %q", relocateTo, wantRelocate)
		}
		wantRetry := time.Duration(0)
		if retryRecorded {
			wantRetry = retry
		}
		if retryAfter != wantRetry {
			t.Errorf("retry-after floor = %v, want %v", retryAfter, wantRetry)
		}
	}

	for _, tc := range cases {
		tc := tc
		name := tc.reason.String()
		if tc.reason == CloseNone {
			name = "none"
		}
		t.Run(name+"/poll", func(t *testing.T) {
			s := serve(t, func(*httpwire.Request) *httpwire.Response { return terminal(tc.reason) })
			s.QueueAction(Action{Kind: ActionMouseMove, X: 1, Y: 1})
			_, err := s.PollOnce()
			check(t, s, err, tc.reason, tc.poll, true)
			if got := len(s.queue); got != 1 {
				t.Errorf("piggybacked action not requeued (queue=%d)", got)
			}
		})
		t.Run(name+"/upgrade", func(t *testing.T) {
			s := serve(t, func(*httpwire.Request) *httpwire.Response { return terminal(tc.reason) })
			err := s.DuplexOnce(nil)
			check(t, s, err, tc.reason, tc.channel, true)
		})
		t.Run(name+"/frame", func(t *testing.T) {
			s := serve(t, func(*httpwire.Request) *httpwire.Response {
				resp := httpwire.NewResponse(101, "", nil)
				resp.Hijack = func(conn net.Conn, br *bufio.Reader) {
					_ = httpwire.NewChannelConn(conn, br).WriteFrame(httpwire.Frame{
						Type:    FrameClose,
						Payload: encodeCloseSignal(closeSignal{reason: tc.reason, retry: retry, relocate: relocate}),
					})
				}
				return resp
			})
			want, recorded := tc.channel, tc.reason
			if recorded == CloseNone {
				recorded = CloseUnknown
				want = outcome{rejoin: true, err: CloseUnknown}
			}
			err := s.DuplexOnce(nil)
			check(t, s, err, recorded, want, true)
		})
		t.Run(name+"/join", func(t *testing.T) {
			s := serve(t, func(*httpwire.Request) *httpwire.Response { return terminal(tc.reason) })
			err := s.Join()
			check(t, s, err, tc.reason, tc.join, tc.reason != CloseNone)
		})
	}
}
