package core

// Client half of the persistent full-duplex channel (DeliveryDuplex). The
// server half and the frame schema live in channel.go. One DuplexOnce call
// is one channel session: upgrade, read frames until the channel ends,
// tear down. Run drives sessions back to back, degrading to the long-poll
// path between attempts — the snippet's delivery ladder is
// duplex → long-poll → interval, each rung falling back to the next and
// recovering upward when the better channel becomes available again.

import (
	"fmt"
	"strconv"
	"time"

	"rcb/internal/httpwire"
)

// duplexUpgradeTimeout bounds the POST /channel handshake round trip; the
// endpoint answers immediately by design.
const duplexUpgradeTimeout = 5 * time.Second

// duplexPingInterval paces the client keepalive probe. Every ping provokes
// a pong, so a healthy channel delivers a frame at least this often even
// when the document is idle — which is what makes the read deadline below
// a dead-agent detector rather than a second pacing mechanism.
const duplexPingInterval = 5 * time.Second

// duplexReadTimeout is the per-read deadline: comfortably more than one
// ping interval, so it only fires when the agent stopped answering probes.
const duplexReadTimeout = 3 * duplexPingInterval

// duplexEligible reports whether Run should attempt a channel session now:
// the snippet is in duplex mode and its channel breaker is not suspended
// (while it is, the long-poll fallback carries the session).
func (s *Snippet) duplexEligible() bool {
	if s.Delivery != DeliveryDuplex {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.duplex.suspended()
}

// suspendDuplexLocked trips the channel breaker after a refused upgrade or
// a lost channel: upgrade attempts pause for the backoff delay — floored by
// any server-assigned retry interval — while polling carries the session.
func (s *Snippet) suspendDuplexLocked() {
	s.backoffsLocked()
	s.duplex.suspend(s.retryAfter)
	s.stats.DuplexFallbacks++
}

// duplexDelay is the pause Run takes after a channel session ends: zero
// unless the agent assigned explicit pacing (a shed retry hint, a MOVED
// retry hint) — the fallback poll or the rejoin should otherwise start
// immediately.
func (s *Snippet) duplexDelay() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retryAfter
}

// dispatchDuplex routes one stamped action over the live channel, if one is
// attached. The caller holds wmu. The action enters the retransmit buffer
// before the write: if the channel dies with the ack outstanding, teardown
// requeues it for piggybacking, and the agent's (CID, CSeq) filter absorbs
// the replay — at-least-once on the wire, exactly-once in effect, the same
// contract as every other upstream path.
func (s *Snippet) dispatchDuplex(act Action) bool {
	s.mu.Lock()
	ch := s.channel
	if ch != nil {
		s.chanSent = append(s.chanSent, act)
	}
	s.mu.Unlock()
	if ch == nil {
		return false
	}
	s.writeActions(ch, []Action{act})
	return true
}

// writeActions sends actions already entered in chanSent as one ACTIONS
// frame; the caller holds wmu, so frames leave in chanSent order. A failed
// write closes the dying channel and leaves the actions buffered: the
// session's teardown moves them to the piggyback queue.
func (s *Snippet) writeActions(ch *httpwire.ChannelConn, acts []Action) {
	err := ch.WriteFrame(httpwire.Frame{Type: FrameActions, Payload: []byte(EncodeActions(acts))})
	s.mu.Lock()
	if err != nil {
		s.stats.ActionFallbacks += int64(len(acts))
	} else {
		s.stats.DuplexActionsSent += int64(len(acts))
		s.stats.DuplexFramesOut++
	}
	s.mu.Unlock()
	if err != nil {
		ch.Close()
	}
}

// DuplexOnce runs one persistent-channel session: upgrade the connection,
// then read frames — content pushes, action acks, pongs, the close — until
// the channel ends. It blocks for the session's lifetime (Run calls it in
// place of a PollOnce cycle) and returns nil for orderly degradations, a
// CloseError when the agent ended the session with a reason, or the
// transport error that killed the channel. Queued actions are flushed over
// the channel the moment it opens; unacknowledged ones are requeued when it
// closes.
func (s *Snippet) DuplexOnce(stop <-chan struct{}) error {
	fields := []httpwire.FormField{{Name: "ts", Value: strconv.FormatInt(s.DocTime(), 10)}}
	if !s.DisableDelta {
		fields = append(fields, httpwire.FormField{Name: "delta", Value: "1"})
	}
	addr, req, err := s.newRequest("/channel", fields)
	if err != nil {
		return err
	}
	ch, resp, err := s.Browser.Client.Upgrade(addr, req, duplexUpgradeTimeout)
	if err != nil {
		s.mu.Lock()
		s.suspendDuplexLocked()
		s.mu.Unlock()
		return fmt.Errorf("rcb-snippet: channel upgrade: %w", err)
	}
	if ch == nil {
		return s.duplexClose("channel upgrade", closeFromHeader(resp.Header), resp.StatusCode)
	}

	// Channel up: attach it as the dispatch target and flush the piggyback
	// queue over it, so actions queued during the fallback window arrive
	// now instead of riding a poll that will never be sent. Both happen
	// under wmu: a concurrent action waits for the flush, so it can neither
	// overtake the queued ones on the wire nor let its ack prune them.
	s.wmu.Lock()
	s.mu.Lock()
	s.channel = ch
	queued := s.queue
	s.queue = nil
	s.chanSent = append(s.chanSent, queued...)
	s.stats.DuplexUpgrades++
	s.duplex.reset()
	s.push.reset()
	s.parkDenied = false
	s.retryAfter = 0
	s.mu.Unlock()
	if len(queued) > 0 {
		s.writeActions(ch, queued)
	}
	s.wmu.Unlock()

	// Keepalive and stop handling share a goroutine: pings flow while the
	// session lives; a stop closes the channel out from under the read
	// loop, after a best-effort close frame so the agent sees an orderly
	// detach rather than a dead peer.
	readerDone := make(chan struct{})
	go func() {
		ticker := time.NewTicker(duplexPingInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				_ = ch.WriteFrame(httpwire.Frame{Type: FrameClose})
				ch.Close()
				return
			case <-readerDone:
				return
			case <-ticker.C:
				if ch.WriteFrame(httpwire.Frame{Type: FramePing}) != nil {
					ch.Close()
					return
				}
				s.mu.Lock()
				s.stats.DuplexFramesOut++
				s.mu.Unlock()
			}
		}
	}()
	err = s.duplexReadLoop(ch, stop)
	close(readerDone)
	ch.Close()

	// Teardown: detach, and sweep unacknowledged actions into the piggyback
	// queue ahead of anything queued since — CSeq order is preserved, and
	// the replay filter drops whatever the agent already merged.
	s.mu.Lock()
	if s.channel == ch {
		s.channel = nil
	}
	s.queue = append(s.chanSent, s.queue...)
	s.chanSent = nil
	s.mu.Unlock()
	return err
}

// duplexClose routes a close the channel received — a refused upgrade
// (read off its headers) or a FrameClose — after recording it: MOVED and
// an unknown or stale identity rejoin, deliberate removal ends the session,
// and a load refusal (OVERCOMMITTED, SESSION_FULL, AGENT_CLOSING) or a
// reason-less denial is not a session event, just this channel being
// declined: fall back to polling and retry the upgrade later.
func (s *Snippet) duplexClose(what string, cs closeSignal, status int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteCloseLocked(cs)
	switch cs.reason {
	case CloseMoved, CloseUnknown, CloseStaleReader:
		s.rejoinNeeded = true
	case CloseLeave, CloseKicked:
	default:
		s.suspendDuplexLocked()
		return nil
	}
	return closeErr(what, cs.reason, status)
}

// duplexReadLoop consumes frames until the channel ends. Content and delta
// frames apply exactly as a poll response does and are acknowledged with
// the resulting docTime — or with 0 when an apply fails, which asks the
// agent for a full resync over the same channel. A read error opens the
// fallback window; a close frame is routed like a refused upgrade.
func (s *Snippet) duplexReadLoop(ch *httpwire.ChannelConn, stop <-chan struct{}) error {
	for {
		_ = ch.SetReadDeadline(time.Now().Add(duplexReadTimeout))
		f, err := ch.ReadFrame()
		if err != nil {
			select {
			case <-stop:
				return nil // our own shutdown closed the socket
			default:
			}
			s.mu.Lock()
			s.suspendDuplexLocked()
			s.mu.Unlock()
			return fmt.Errorf("rcb-snippet: channel read: %w", err)
		}
		s.mu.Lock()
		s.stats.DuplexFramesIn++
		s.mu.Unlock()
		switch f.Type {
		case FrameContent, FrameDelta:
			if updated, err := s.applyMessage(f.Payload); err != nil {
				s.duplexAck(ch, 0)
			} else if updated {
				s.duplexAck(ch, s.DocTime())
			}
		case FrameActionAck:
			seq, _ := strconv.ParseInt(string(f.Payload), 10, 64)
			s.mu.Lock()
			kept := s.chanSent[:0]
			for _, a := range s.chanSent {
				if a.CSeq > seq {
					kept = append(kept, a)
				}
			}
			s.chanSent = kept
			s.mu.Unlock()
		case FramePong:
			// Keepalive answered; the read deadline was already pushed out.
		case FrameClose:
			cs := decodeCloseSignal(f.Payload)
			return s.duplexClose("channel closed", cs, cs.reason.StatusCode())
		default:
			// Unknown frame type: ignore, for forward compatibility.
		}
	}
}

// duplexAck reports an applied docTime (or, with 0, a failed apply that
// needs a full resync) back to the agent.
func (s *Snippet) duplexAck(ch *httpwire.ChannelConn, ts int64) {
	buf := strconv.AppendInt(make([]byte, 0, 20), ts, 10)
	if ch.WriteFrame(httpwire.Frame{Type: FrameAck, Payload: buf}) == nil {
		s.mu.Lock()
		s.stats.DuplexFramesOut++
		s.mu.Unlock()
	}
}
