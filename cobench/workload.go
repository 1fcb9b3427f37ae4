package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"rcb/internal/sites"
)

// workload is one named traffic mix. The generator goroutine issues every host
// change, join and typist action on an open-loop schedule generated from the
// seed; the participants' snippets are the session under test.
type workload struct {
	name string
	// site is the page the host shows after set-up.
	site  string
	fleet int
	// typists is how many participants fire actions (slot 0 long-poll with
	// action push, slot 1 duplex); typistHz is their combined action rate.
	// Each typist's every submitEvery-th action is a form submit, the rest
	// pointer moves.
	typists     int
	typistHz    float64
	submitEvery int
	editHz      float64 // host edits per second, issued in bursts of 1–4
	navHz       float64 // host navigations per second
	churn       bool    // one participant leaves and a fresh one joins per navigation
	// syncKind is the change the sync metrics time: generated edits, generated
	// navigations, or merged typist form submits.
	syncKind eventKind
}

var workloads = map[string]workload{
	"edit-fanout": {name: "edit-fanout", site: "msn.com", fleet: 64,
		typists: 1, typistHz: 16, submitEvery: 2, editHz: 50, syncKind: evEdit},
	"navigate-join": {name: "navigate-join", site: "msn.com", fleet: 16,
		typists: 1, typistHz: 12, submitEvery: 2, navHz: 8, churn: true, syncKind: evNav},
	"action-mirror": {name: "action-mirror", site: "msn.com", fleet: 32,
		typists: 2, typistHz: 40, submitEvery: 2, syncKind: evSubmit},
}

// Edit operations on the host page. The small ones touch one seeded story
// of the page's content region; opLarge rewrites every text run of the page.
const (
	opAttr = iota
	opText
	opSubtree
	opLarge
)

type editSpec struct {
	op     int
	target int
	text   string
	texts  []string // opLarge: replacement text per story
}

type tickKind uint8

const (
	tickBurst tickKind = iota
	tickNav
	tickAction
)

// tick is one scheduled generator step, due at offset at from the window's
// start.
type tick struct {
	at    time.Duration
	kind  tickKind
	edits []editSpec
	site  string // tickNav: destination
	pick  int    // tickNav: seeded choice of the leaving participant
	// tickAction: which typist acts, what kind of action, and the seeded
	// word carried by a form submit.
	typist int
	submit bool
	word   string
}

// pageShape is what edit generation needs to know about the host page.
type pageShape struct {
	stories   int
	fillerLen int
	storyLen  int
}

// rngStream returns an independent seeded generator per schedule stream, so a
// change to one stream's draws never shifts another's.
func rngStream(seed int64, id int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + id))
}

// siteWalk returns n Table 1 sites in seeded order, starting at first. The walk is a chain of
// seeded permutations of the whole corpus, so every seed visits each site
// equally often; each permutation puts the previous one's last ten sites in
// its second half, so no site recurs within ten steps and a participant's
// page title names its navigation unambiguously.
func siteWalk(seed int64, first string, n int) []string {
	r := rngStream(seed, 1)
	all := make([]string, len(sites.Table1))
	for i, s := range sites.Table1 {
		all[i] = s.Name
	}
	const window = 10
	out := make([]string, 1, n+len(all))
	out[0] = first
	for len(out) < n {
		recent := out[max(0, len(out)-window):]
		var first, second []string
		for _, s := range all {
			if contains(recent, s) {
				second = append(second, s)
			} else {
				first = append(first, s)
			}
		}
		r.Shuffle(len(first), func(i, j int) { first[i], first[j] = first[j], first[i] })
		r.Shuffle(len(second), func(i, j int) { second[i], second[j] = second[j], second[i] })
		out = append(append(out, first...), second...)
	}
	return out[:n]
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// jitter spreads one interval uniformly over ±spread of its mean.
func jitter(r *rand.Rand, mean time.Duration, spread float64) time.Duration {
	return time.Duration(float64(mean) * (1 - spread + 2*spread*r.Float64()))
}

// schedule generates the window's open-loop schedule, sorted by due time.
// walk is the navigation order (walk[0] is the page loaded at set-up). Edit
// contents depend on the host page and are drawn later by fillEdits from
// their own stream, so the schedule's shape never depends on the page.
func schedule(w workload, seed int64, window time.Duration, walk []string) []tick {
	var out []tick
	if w.editHz > 0 {
		r := rngStream(seed, 2)
		mean := time.Duration(float64(time.Second) * 2.5 / w.editHz)
		var bursts []int
		for t := jitter(r, mean, 0.1); t < window; t += jitter(r, mean, 0.1) {
			bursts = append(bursts, len(out))
			out = append(out, tick{at: t, kind: tickBurst})
		}
		// Burst sizes are a seeded shuffle of equal shares of 1, 2, 3 and 4,
		// so every seed issues the same number of edits.
		sizes := make([]int, len(bursts))
		for i := range sizes {
			sizes[i] = 1 + i%4
		}
		rngStream(seed, 6).Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		for i, at := range bursts {
			out[at].edits = make([]editSpec, sizes[i])
		}
	}
	if w.navHz > 0 {
		r := rngStream(seed, 3)
		mean := time.Duration(float64(time.Second) / w.navHz)
		i := 1
		for t := jitter(r, mean, 0.1); t < window; t += jitter(r, mean, 0.1) {
			out = append(out, tick{at: t, kind: tickNav, site: walk[i], pick: r.Intn(1 << 30)})
			i++
		}
	}
	if w.typistHz > 0 {
		r := rngStream(seed, 4)
		mean := time.Duration(float64(time.Second) / w.typistHz)
		i := 0
		for t := jitter(r, mean, 0.1); t < window; t += jitter(r, mean, 0.1) {
			out = append(out, tick{at: t, kind: tickAction, typist: i % w.typists,
				submit: (i/w.typists)%w.submitEvery == 0, word: word(r)})
			i++
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// largeEvery is the cadence of page-wide rewrites among the edits: a fixed
// share, so every seed carries the same number of them.
const largeEvery = 20

// fillEdits draws the contents of every scheduled edit for the host page.
func fillEdits(sched []tick, seed int64, shape pageShape) {
	r := rngStream(seed, 5)
	n := 0
	for i := range sched {
		for j := range sched[i].edits {
			n++
			sched[i].edits[j] = genEdit(r, shape, n%largeEvery == 0)
		}
	}
}

// genEdit draws one host edit: an attribute, text or small-subtree change at
// a seeded story, or, when large, a rewrite of every text run on the page.
func genEdit(r *rand.Rand, shape pageShape, large bool) editSpec {
	e := editSpec{target: r.Intn(1 << 30)}
	if large {
		e.op = opLarge
		e.text = text(r, shape.fillerLen)
		for i := 0; i < shape.stories; i++ {
			e.texts = append(e.texts, text(r, shape.storyLen))
		}
		return e
	}
	switch x := r.Float64(); {
	case x < 0.4:
		e.op = opAttr
		e.text = word(r)
	case x < 0.8:
		e.op = opText
		e.text = text(r, 40+r.Intn(160))
	default:
		e.op = opSubtree
		e.text = text(r, 10+r.Intn(30))
	}
	return e
}

var syllables = []string{"ka", "ro", "mi", "ten", "vas", "lu", "por", "in", "de", "sha", "ul", "bre", "go", "fi", "nat"}

func word(r *rand.Rand) string {
	var b strings.Builder
	for i, n := 0, 2+r.Intn(3); i < n; i++ {
		b.WriteString(syllables[r.Intn(len(syllables))])
	}
	return b.String()
}

// text returns about n bytes of seeded words.
func text(r *rand.Rand, n int) string {
	var b strings.Builder
	b.Grow(n + 16)
	for b.Len() < n {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(word(r))
	}
	return b.String()
}

// submitValue is the form value a typist submits for action seq: a seeded
// word plus the sequence number every replica's marker reads back.
func submitValue(word string, seq int) string { return fmt.Sprintf("%s-%d", word, seq) }
