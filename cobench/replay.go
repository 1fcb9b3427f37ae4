package main

import (
	"errors"
	"net"

	"rcb/internal/browser"
	"rcb/internal/core"
	"rcb/internal/dom"
)

// replayStats are the counts the replays produce besides their spans.
type replayStats struct {
	diffs, patches int
	snapshotBytes  dist
	deltaBytes     dist
	applyErrors    int
}

// replay times the layers the benchmark cannot wrap from outside, on the
// payloads the traced window actually carried:
//
//   - every captured host document goes through Agent.BuildContent on a
//     replay agent sharing the host's object cache, then core.Unmarshal and
//     NewContent.Marshal of the result, and dom.Diff of its participant view
//     against the previous change's — the work the live agent did per change;
//   - each captured long-poll stream is re-applied from its initial page
//     through a fresh ApplyMemo, timing UnmarshalDelta, ApplyDelta and Apply;
//   - every captured signed request is re-verified and every captured action
//     payload re-decoded.
func (s *session) replay() replayStats {
	tr := s.tr
	var st replayStats
	tr.cmu.Lock()
	docs := tr.hostDocs
	streams := make([]*stream, 0, len(tr.streams))
	for _, sm := range tr.streams {
		streams = append(streams, sm)
	}
	requests, actions := tr.requests, tr.actions
	tr.cmu.Unlock()

	rb := browser.New("replay.lan", func(string) (net.Conn, error) {
		return nil, errors.New("replay browser is offline")
	})
	defer rb.Close()
	rb.Cache = s.host.Cache
	ra := core.NewAgent(rb, s.addr)
	ra.DefaultCacheMode = true
	ra.Auth = core.NewAuthenticator(s.key)
	defer ra.Close()
	var prev *dom.Node
	for _, hd := range docs {
		rb.SetDocument(hd.url, hd.doc)
		t0 := now()
		parent := tr.add(spReplayChange, t0, t0, -1, 0)
		prep, err := ra.BuildContent(true)
		t1 := now()
		if err != nil {
			st.applyErrors++
			continue
		}
		tr.add(spBuild, t0, t1, parent, prep.DocTime())
		st.snapshotBytes = append(st.snapshotBytes, int64(len(prep.XML())))
		nc, err := core.Unmarshal(prep.XML())
		t2 := now()
		tr.add(spUnmarshal, t1, t2, parent, prep.DocTime())
		if err != nil {
			st.applyErrors++
			continue
		}
		_ = nc.Marshal()
		t3 := now()
		tr.add(spMarshal, t2, t3, parent, prep.DocTime())
		cur := participantBody(nc)
		end := t3
		if prev != nil && cur != nil {
			patches := dom.Diff(prev, cur)
			end = now()
			tr.add(spDiff, t3, end, parent, prep.DocTime())
			st.diffs++
			st.patches += len(patches)
		}
		tr.setEnd(parent, end)
		prev = cur
	}

	for _, sm := range streams {
		doc := dom.Parse(string(sm.page))
		var memo core.ApplyMemo
		for _, body := range sm.bodies {
			if len(body) == 0 {
				continue
			}
			t0 := now()
			parent := tr.add(spReplayRecv, t0, t0, -1, 0)
			if core.MessageIsDelta(body) {
				st.deltaBytes = append(st.deltaBytes, int64(len(body)))
				d, err := core.UnmarshalDelta(body)
				t1 := now()
				tr.add(spDeltaUnmarshal, t0, t1, parent, 0)
				if err != nil {
					st.applyErrors++
					break
				}
				err = memo.ApplyDelta(doc, d)
				t2 := now()
				tr.add(spApplyDelta, t1, t2, parent, d.DocTime)
				tr.setEnd(parent, t2)
				if err != nil {
					st.applyErrors++
					break
				}
				continue
			}
			nc, err := core.Unmarshal(body)
			t1 := now()
			if err != nil {
				st.applyErrors++
				break
			}
			if !nc.HasDocument {
				tr.setEnd(parent, t1)
				continue
			}
			err = memo.Apply(doc, nc)
			t2 := now()
			tr.add(spApply, t1, t2, parent, nc.DocTime)
			tr.setEnd(parent, t2)
			if err != nil {
				st.applyErrors++
				break
			}
		}
	}

	auth := core.NewAuthenticator(s.key)
	for _, r := range requests {
		t0 := now()
		ok := auth.Verify(r.method, r.target, r.body)
		tr.add(spVerify, t0, now(), -1, 0)
		if !ok {
			st.applyErrors++
		}
	}
	for _, payload := range actions {
		t0 := now()
		_, err := core.DecodeActions(payload)
		tr.add(spDecode, t0, now(), -1, 0)
		if err != nil {
			st.applyErrors++
		}
	}
	return st
}

// participantBody rebuilds the body a participant holds after a full apply
// of nc — the tree the agent diffs between builds.
func participantBody(nc *core.NewContent) *dom.Node {
	if nc.Body == nil {
		return nil
	}
	el := dom.NewElement("body")
	el.Attrs = append([]dom.Attr(nil), nc.Body.Attrs...)
	dom.SetInnerHTML(el, nc.Body.Inner)
	return el
}

// setEnd closes a parent span once its children are recorded.
func (t *tracer) setEnd(id int32, end int64) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}
