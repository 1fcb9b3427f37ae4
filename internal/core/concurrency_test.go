package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rcb/internal/dom"
	"rcb/internal/sites"
)

// TestConcurrentPollSingleFlight drives 32 participants polling
// concurrently across a document version bump and asserts the single-flight
// guard: the Figure 3 pipeline runs exactly once per (version, mode), and
// every participant receives the same docTime. Run with -race.
func TestConcurrentPollSingleFlight(t *testing.T) {
	w := newWorld(t, nil)
	spec := sites.Table1[1] // google.com
	w.hostNavigate(t, "http://"+spec.Host()+"/")

	const n = 32
	snippets := make([]*Snippet, n)
	for i := range snippets {
		snippets[i] = w.join(t, fmt.Sprintf("p%d.lan", i))
	}
	// Warm every participant onto the current version so the bump below is
	// the only thing left to generate.
	for i, s := range snippets {
		if _, err := s.PollOnce(); err != nil {
			t.Fatalf("warm poll %d: %v", i, err)
		}
	}

	builds0 := w.agent.ContentBuilds()
	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-bump", "1")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

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
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("poll %d: %v", i, errs[i])
		}
		if !updated[i] {
			t.Errorf("poll %d carried no content after version bump", i)
		}
	}
	if got := w.agent.ContentBuilds() - builds0; got != 1 {
		t.Errorf("BuildContent ran %d times for one (version, mode); want exactly 1", got)
	}
	want := snippets[0].DocTime()
	if want == 0 {
		t.Fatal("docTime not advanced")
	}
	for i, s := range snippets {
		if got := s.DocTime(); got != want {
			t.Errorf("participant %d docTime = %d, want %d (all must share one prepared message)", i, got, want)
		}
	}
}

// TestConcurrentPollMixedModes bumps the document with participants in both
// cache and non-cache mode polling at once: one build per mode, and the two
// modes must not bleed content into each other.
func TestConcurrentPollMixedModes(t *testing.T) {
	w := newWorld(t, nil)
	spec := sites.Table1[1]
	w.hostNavigate(t, "http://"+spec.Host()+"/")

	const n = 16
	snippets := make([]*Snippet, n)
	for i := range snippets {
		snippets[i] = w.join(t, fmt.Sprintf("m%d.lan", i))
	}
	if got := len(w.agent.Participants()); got != n {
		t.Fatalf("got %d participants, want %d", got, n)
	}
	// Joins are sequential, so snippet i holds cookie pid p(i+1).
	for i := range snippets {
		if err := w.agent.SetParticipantMode(fmt.Sprintf("p%d", i+1), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range snippets {
		if _, err := s.PollOnce(); err != nil {
			t.Fatalf("warm poll %d: %v", i, err)
		}
	}

	builds0 := w.agent.ContentBuilds()
	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-bump", "2")
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("poll %d: %v", i, errs[i])
		}
	}
	if got := w.agent.ContentBuilds() - builds0; got != 2 {
		t.Errorf("BuildContent ran %d times for one version across two modes; want exactly 2", got)
	}
	// Each mode shares one prepared message, so docTime must agree within a
	// mode group (each build mints its own timestamp, so the two groups may
	// differ from each other by a tick).
	wantByMode := map[bool]int64{}
	for i, s := range snippets {
		cache := i%2 == 0
		got := s.DocTime()
		if want, ok := wantByMode[cache]; !ok {
			wantByMode[cache] = got
		} else if got != want {
			t.Errorf("participant %d (cache=%v) docTime = %d, want %d", i, cache, got, want)
		}
	}
}

// TestApplyMemoFirstApplyCleansHead guards the memo's never-applied state:
// a fresh memo must not treat "no head children yet" as equal to content
// with an empty head list — the first Apply always runs head cleanup, or a
// joining participant keeps the initial page's title forever.
func TestApplyMemoFirstApplyCleansHead(t *testing.T) {
	doc := dom.Parse(`<!DOCTYPE html><html><head><title>RCB Session</title>` +
		`<script id="rcb-ajax-snippet">/*snippet*/</script></head>` +
		`<body><div id="rcb-status">Connecting...</div></body></html>`)
	content := &NewContent{
		DocTime:     1,
		HasDocument: true,
		Body:        &TopElement{Inner: "<p>empty-head page</p>"},
	}
	var memo ApplyMemo
	if err := memo.Apply(doc, content); err != nil {
		t.Fatal(err)
	}
	kids := doc.Head().ChildElements()
	if len(kids) != 1 || kids[0].AttrOr("id", "") != "rcb-ajax-snippet" {
		t.Fatalf("head after first memoized apply = %d children (want only the snippet): %v", len(kids), kids)
	}
	// Second apply with identical content must be a no-op skip, not a wipe.
	if err := memo.Apply(doc, content); err != nil {
		t.Fatal(err)
	}
	if got := len(doc.Head().ChildElements()); got != 1 {
		t.Fatalf("head after second apply = %d children, want 1", got)
	}
}

// TestPreparedContentUserActionSplice checks the zero-copy assembly: the
// spliced message must parse as valid Figure 4 content carrying both the
// shared document payload and the per-participant actions, while the cached
// bytes stay untouched and action-free.
func TestPreparedContentUserActionSplice(t *testing.T) {
	w := newWorld(t, nil)
	spec := sites.Table1[1]
	w.hostNavigate(t, "http://"+spec.Host()+"/")

	prep, err := w.agent.BuildContent(false)
	if err != nil {
		t.Fatal(err)
	}
	base := append([]byte(nil), prep.XML()...)
	actions := []Action{
		{Kind: ActionMouseMove, X: 10, Y: 20, From: "p1"},
		{Kind: ActionScroll, Y: 300, From: "p2"},
	}
	spliced := prep.WithUserActions(actions)

	content, err := Unmarshal(spliced)
	if err != nil {
		t.Fatalf("spliced message does not parse: %v", err)
	}
	if !content.HasDocument {
		t.Error("splice lost the document payload")
	}
	if content.DocTime != prep.DocTime() {
		t.Errorf("docTime %d, want %d", content.DocTime, prep.DocTime())
	}
	if len(content.UserActions) != 2 {
		t.Fatalf("got %d user actions, want 2", len(content.UserActions))
	}
	if content.UserActions[0].Kind != ActionMouseMove || content.UserActions[1].Kind != ActionScroll {
		t.Errorf("action kinds corrupted: %v", content.UserActions)
	}
	if string(prep.XML()) != string(base) {
		t.Error("splice mutated the shared cached message")
	}
	cached, err := Unmarshal(prep.XML())
	if err != nil {
		t.Fatal(err)
	}
	if len(cached.UserActions) != 0 {
		t.Error("cached message must stay action-free")
	}
	if prep.WithUserActions(nil); len(prep.WithUserActions(nil)) != len(base) {
		t.Error("empty splice must return the shared bytes unchanged")
	}
}

// TestRacingBuildsOneDocTimePerVersion races two content builds across a
// version bump: every docTime handed out must be the stored build or a
// delta-base ring member, each version must be handed out under one
// docTime, and the stored docTime must never move backwards. A build that
// lost such a race and still replaced (or was handed out beside) the stored
// one would strand its recipients off the delta path.
//
// Each round stages the race: racer A reads the version and is held on the
// cache lock while the host bumps, so A goes on to build the bumped
// document; the host document lock then holds A's build until racer B has
// read the bumped version too, found only A's older in-flight call, and
// started a build of the same version.
func TestRacingBuildsOneDocTimePerVersion(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	a := w.agent
	bump := func(attr string) {
		t.Helper()
		if err := w.host.ApplyMutation(func(doc *dom.Document) error {
			doc.Body().SetAttr("data-race", attr)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	rounds := 40
	if testing.Short() {
		rounds = 15
	}
	docTimeOf := make(map[int64]int64) // version → the one docTime handed out
	var lastDocTime int64
	for r := 0; r < rounds; r++ {
		bump(fmt.Sprint("pre", r)) // a version nobody has built yet
		handed := make(chan *PreparedContent, 2)
		var wg sync.WaitGroup
		race := func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prep, err := a.contentForMode(false)
				if err != nil {
					t.Error(err)
				}
				handed <- prep
			}()
		}
		a.cmu.Lock()
		race() // A
		time.Sleep(time.Millisecond)
		bump(fmt.Sprint("race", r))
		held, release := make(chan struct{}), make(chan struct{})
		go w.host.WithDocument(func(string, *dom.Document) error {
			close(held)
			<-release
			return nil
		})
		<-held
		a.cmu.Unlock()
		waitUntil(t, "racer A's build in flight", func() bool {
			a.cmu.Lock()
			defer a.cmu.Unlock()
			return a.cache[0].build != nil
		})
		race() // B
		time.Sleep(time.Millisecond)
		close(release)
		wg.Wait()
		close(handed)

		a.cmu.Lock()
		cur := a.cache[0].cur
		retained := map[int64]bool{cur.docTime: true}
		for _, b := range a.cache[0].ring {
			retained[b.docTime] = true
		}
		a.cmu.Unlock()
		if cur.docTime < lastDocTime {
			t.Fatalf("round %d: stored docTime moved backwards %d → %d", r, lastDocTime, cur.docTime)
		}
		lastDocTime = cur.docTime
		for prep := range handed {
			if !retained[prep.docTime] {
				t.Fatalf("round %d: handed-out docTime %d (version %d) is neither the stored build nor a ring base",
					r, prep.docTime, prep.version)
			}
			if dt, ok := docTimeOf[prep.version]; ok && dt != prep.docTime {
				t.Fatalf("round %d: version %d handed out under two docTimes, %d and %d", r, prep.version, dt, prep.docTime)
			}
			docTimeOf[prep.version] = prep.docTime
		}
	}
}
