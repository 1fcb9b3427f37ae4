package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"rcb/internal/dom"
	"rcb/internal/httpwire"
)

// hostPage holds the host document nodes edit-fanout rewrites. The host
// never navigates in that workload, so the nodes stay live; every access
// happens inside ApplyMutation, under the browser lock.
type hostPage struct {
	stories []*dom.Node
	filler  *dom.Node
}

// pageShape locates the edit targets of the host page and measures what
// edit generation needs.
func (s *session) pageShape() (pageShape, *hostPage, error) {
	var shape pageShape
	hp := &hostPage{}
	err := s.host.WithDocument(func(_ string, doc *dom.Document) error {
		content := doc.ByID("content")
		filler := doc.ByID("filler")
		if content == nil || filler == nil {
			return fmt.Errorf("host page lacks #content or #filler")
		}
		hp.stories = content.ChildElements()
		hp.filler = filler.FirstChildElement("p")
		if len(hp.stories) == 0 || hp.filler == nil {
			return fmt.Errorf("host page has no stories or filler text")
		}
		shape.stories = len(hp.stories)
		shape.fillerLen = len(hp.filler.TextContent())
		if p := hp.stories[0].FirstChildElement("p"); p != nil {
			shape.storyLen = len(p.TextContent())
		}
		return nil
	})
	return shape, hp, err
}

// applyEdit performs one scheduled edit and stamps the document with the
// number of edits it now holds — the marker every replica reads back.
func (hp *hostPage) applyEdit(doc *dom.Document, e editSpec, held int) error {
	st := hp.stories[e.target%len(hp.stories)]
	switch e.op {
	case opAttr:
		st.SetAttr("class", "story "+e.text)
	case opText:
		if p := st.FirstChildElement("p"); p != nil {
			p.ReplaceChildren(dom.NewText(e.text))
		}
	case opSubtree:
		if h3 := st.FirstChildElement("h3"); h3 != nil {
			a := dom.NewElement("a")
			a.SetAttr("href", "/item/"+strconv.Itoa(e.target%len(hp.stories)))
			a.AppendChild(dom.NewText(e.text))
			h3.ReplaceChildren(a)
		}
	case opLarge:
		hp.filler.ReplaceChildren(dom.NewText(e.text))
		for i, st := range hp.stories {
			if p := st.FirstChildElement("p"); p != nil {
				p.ReplaceChildren(dom.NewText(e.texts[i%len(e.texts)]))
			}
		}
	}
	doc.Body().SetAttr("data-bseq", strconv.Itoa(held))
	return nil
}

// driveResult is what the load generator observed about itself.
type driveResult struct {
	start, end int64
	late       dist
	ops        int // host changes issued plus typist actions fired
}

// drive runs the open-loop schedule: the generator goroutine sleeps to each
// due time and issues host edits and navigations itself; typist actions are
// handed to one goroutine per typist, and churn joins run on their own
// goroutines. Every latency is later measured from the due time.
func (s *session) drive(sched []tick, hp *hostPage) (driveResult, error) {
	parts := s.participants()
	typists := parts[:s.w.typists]
	queues := make([]chan *event, len(typists))
	perTypist := make([]int, len(typists))
	for _, tk := range sched {
		if tk.kind == tickAction {
			perTypist[tk.typist]++
		}
	}
	var lateMu sync.Mutex
	var res driveResult
	var wg sync.WaitGroup
	for i, p := range typists {
		// Sized to the typist's whole schedule, so the generator never blocks
		// on a typist still inside an earlier action.
		queues[i] = make(chan *event, perTypist[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range queues[i] {
				t := now()
				lateMu.Lock()
				res.late = append(res.late, t-e.due)
				lateMu.Unlock()
				s.fire(p, e)
			}
		}()
	}
	var driveErr error
	start := time.Now()
	res.start = now()
	for _, tk := range sched {
		due := res.start + int64(tk.at)
		if d := time.Until(start.Add(tk.at)); d > 0 {
			time.Sleep(d)
		}
		if tk.kind != tickAction {
			lateMu.Lock()
			res.late = append(res.late, now()-due)
			lateMu.Unlock()
		}
		if depth := s.agent.OutboxDepth(); depth > s.outboxMax.Load() {
			s.outboxMax.Store(depth)
		}
		switch tk.kind {
		case tickBurst:
			for _, ed := range tk.edits {
				e := s.newEvent(evEdit, due, -1, "")
				e.change.Store(due)
				if !s.edits.add(e) {
					continue
				}
				held := e.seq + 1
				t0 := now()
				err := s.host.ApplyMutation(func(doc *dom.Document) error { return hp.applyEdit(doc, ed, held) })
				s.span(spMutate, t0, now(), -1, int64(held))
				if err != nil && driveErr == nil {
					driveErr = fmt.Errorf("edit %d: %w", e.seq, err)
				}
				res.ops++
			}
		case tickNav:
			s.navigate(tk, due)
			res.ops++
		case tickAction:
			kind := evPointer
			if tk.submit {
				kind = evSubmit
			}
			e := s.newEvent(kind, due, tk.typist, tk.word)
			if !s.actions.add(e) {
				continue
			}
			queues[tk.typist] <- e
			res.ops++
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	s.joiners.Wait()
	res.end = now()
	return res, driveErr
}

// fire performs one typist action through the participant's snippet, the
// way its rewritten page handlers would.
func (s *session) fire(p *participant, e *event) {
	t0 := now()
	var err error
	if e.kind == evSubmit {
		err = p.snip.SubmitFormByID("search", []httpwire.FormField{{Name: "q", Value: submitValue(e.text, e.seq)}})
	} else {
		p.snip.PointerMove(e.seq, p.slot)
	}
	s.span(spPush, t0, now(), -1, int64(e.seq))
	if err != nil {
		s.actionErrs.Add(1)
		s.violate("typist %d action %d: %v", p.slot, e.seq, err)
	}
}

// navigate performs one scheduled navigation with its churn: a seeded
// participant leaves, the host loads the next page, and a fresh participant
// of the same tier joins it on its own goroutine.
func (s *session) navigate(tk tick, due int64) {
	var leaver *participant
	if s.w.churn {
		var cands []*participant
		for _, p := range s.participants()[s.w.typists:] {
			if s.active[p.slot].Load() {
				cands = append(cands, p)
			}
		}
		if len(cands) > 0 {
			leaver = cands[tk.pick%len(cands)]
			leaver.leave()
		}
	}
	e := s.newEvent(evNav, due, -1, tk.site)
	if !s.navs.add(e) {
		return
	}
	s.pendingNav.Store(e)
	t0 := now()
	if _, err := s.host.Navigate("http://www." + tk.site + ":80/"); err != nil {
		s.violate("navigate %s: %v", tk.site, err)
	}
	t1 := now()
	s.span(spNavigate, t0, t1, -1, int64(e.seq))
	e.change.CompareAndSwap(pending, t1)
	// A submit merged into the page just left can no longer reach anyone:
	// the host document that held it is gone.
	for _, a := range s.actions.all() {
		if a.kind == evSubmit && a.change.Load() > 0 && a.change.Load() < e.change.Load() {
			for i := range a.arrivals {
				a.arrivals[i].CompareAndSwap(pending, notExpected)
			}
		}
	}
	if leaver == nil {
		return
	}
	p := s.newParticipant(leaver.duplex)
	s.joiners.Add(1)
	go func() {
		defer s.joiners.Done()
		at := now()
		d, err := p.join()
		if err != nil {
			s.joinFails.Add(1)
			s.violate("join of participant %d: %v", p.slot, err)
			return
		}
		s.joinMu.Lock()
		s.joins = append(s.joins, int64(d))
		s.joinAt = append(s.joinAt, at)
		s.joinMu.Unlock()
		p.activate()
	}()
}
