package browser

import (
	"bytes"
	"fmt"
	"sync"

	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/netsim"
)

// ObjectFetch records one supplementary-object download during a page load
// or render.
type ObjectFetch struct {
	URL       string
	Txn       netsim.Txn // exact wire bytes up/down
	FromCache bool       // satisfied locally without network traffic
}

// StatusError reports a page load the server answered with a non-success
// status. It preserves the status code and response headers so protocol
// clients layered on the browser (the RCB snippet) can read rejection
// metadata — e.g. a co-browsing agent's close reason — instead of pattern
// matching an error string.
type StatusError struct {
	Browser    string
	URL        string
	StatusCode int
	Header     httpwire.Header
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("browser %s: GET %s returned %d", e.Browser, e.URL, e.StatusCode)
}

// LoadStats captures the measurable work of loading or rendering a page:
// the document transaction and every object fetch. The experiment harness
// replays these through netsim.LinkModel to produce the paper's M1–M4.
type LoadStats struct {
	URL     string
	DocTxn  netsim.Txn
	Objects []ObjectFetch
}

// NetworkObjects returns the object transactions that actually hit the
// network (cache hits excluded).
func (s *LoadStats) NetworkObjects() []netsim.Txn {
	var out []netsim.Txn
	for _, o := range s.Objects {
		if !o.FromCache {
			out = append(out, o.Txn)
		}
	}
	return out
}

// CacheHits counts object fetches served from the local cache.
func (s *LoadStats) CacheHits() int {
	n := 0
	for _, o := range s.Objects {
		if o.FromCache {
			n++
		}
	}
	return n
}

// Browser is a minimal browser model: it loads pages over httpwire, holds
// the live DOM, caches objects, carries cookies, and notifies subscribers
// on every document change. A Browser is safe for concurrent use; RCB-Agent
// observes it from server goroutines while the user navigates.
type Browser struct {
	// Name is the browser's location on the virtual network ("host.lan").
	Name   string
	Client *httpwire.Client
	Cache  *Cache
	Jar    *CookieJar
	// Observer records the current page's object downloads. Each page load
	// records into a fresh observer and installs it together with the
	// document, under the browser lock: read it inside WithDocument while
	// a navigation may be in flight.
	Observer *DownloadObserver
	// FetchOnMutate controls whether ApplyMutation fetches objects the
	// mutated document newly references, as a renderer would. On by
	// default; Ajax-Snippet turns it off for participant browsers because
	// the snippet performs its own render pass after applying content
	// (Figure 5).
	FetchOnMutate bool

	mu       sync.Mutex
	pageURL  string
	doc      *dom.Document
	version  int64
	history  []string
	onChange []func()
}

// New returns a browser located at name, dialing through dial.
func New(name string, dial httpwire.Dialer) *Browser {
	return &Browser{
		Name:          name,
		Client:        httpwire.NewClient(dial),
		Cache:         NewCache(),
		Jar:           NewCookieJar(),
		Observer:      NewDownloadObserver(),
		FetchOnMutate: true,
	}
}

// Close releases network resources.
func (b *Browser) Close() { b.Client.Close() }

// URL returns the current page URL ("" before the first navigation).
func (b *Browser) URL() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pageURL
}

// Version returns the document version, incremented on every navigation or
// mutation. RCB-Agent's timestamp protocol keys off this (paper §4.1.1).
func (b *Browser) Version() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.version
}

// History returns the visited URLs in order.
func (b *Browser) History() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.history...)
}

// OnChange registers fn to run (synchronously) after every document change.
func (b *Browser) OnChange(fn func()) {
	b.mu.Lock()
	b.onChange = append(b.onChange, fn)
	b.mu.Unlock()
}

// WithDocument runs fn with the live document under the browser lock. The
// document must not be retained past fn. Returns an error when no page is
// loaded.
func (b *Browser) WithDocument(fn func(url string, doc *dom.Document) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.doc == nil {
		return fmt.Errorf("browser %s: no page loaded", b.Name)
	}
	return fn(b.pageURL, b.doc)
}

// ApplyMutation runs fn against the live document and bumps the version —
// the stand-in for in-page JavaScript mutating the DOM (Ajax apps, paper
// step 9: "any dynamic changes ... can be synchronized in real time").
// Objects the mutated document newly references are fetched into the cache
// afterwards, as a real browser's renderer would on seeing new src
// attributes.
func (b *Browser) ApplyMutation(fn func(doc *dom.Document) error) error {
	b.mu.Lock()
	if b.doc == nil {
		b.mu.Unlock()
		return fmt.Errorf("browser %s: no page loaded", b.Name)
	}
	err := fn(b.doc)
	if err != nil {
		b.mu.Unlock()
		return err
	}
	var refs []string
	if b.FetchOnMutate {
		refs = ObjectRefs(b.doc)
	}
	pageURL, obs := b.pageURL, b.Observer
	b.bumpLocked()
	subs := append([]func(){}, b.onChange...)
	b.mu.Unlock()

	for _, ref := range refs {
		abs, err := Resolve(pageURL, ref)
		if err != nil {
			continue
		}
		obs.Record(ref, abs)
		// FetchObject is a no-op network-wise on cache hits; a missing
		// object must not fail the mutation (browsers render broken images).
		_, _ = b.FetchObject(abs)
	}
	for _, fn := range subs {
		fn()
	}
	return nil
}

func (b *Browser) bumpLocked() { b.version++ }

// txnBytes computes the exact wire bytes of a request/response pair by
// serializing both messages the way httpwire puts them on the wire.
func txnBytes(req *httpwire.Request, resp *httpwire.Response) netsim.Txn {
	var up, down bytes.Buffer
	_ = httpwire.WriteRequest(&up, req)
	_ = httpwire.WriteResponse(&down, resp)
	return netsim.Txn{Up: up.Len(), Down: down.Len()}
}

// do sends a request with cookies attached and records Set-Cookie replies.
func (b *Browser) do(absURL string, req *httpwire.Request) (*httpwire.Response, netsim.Txn, error) {
	addr, err := AddrOf(absURL)
	if err != nil {
		return nil, netsim.Txn{}, err
	}
	host := HostOf(absURL)
	if c := b.Jar.Header(host); c != "" {
		req.Header.Set("Cookie", c)
	}
	req.Header.Set("Host", host)
	resp, err := b.Client.Do(addr, req)
	if err != nil {
		return nil, netsim.Txn{}, err
	}
	for _, sc := range resp.Header["Set-Cookie"] {
		b.Jar.SetFromHeader(host, sc)
	}
	return resp, txnBytes(req, resp), nil
}

// Navigate loads an absolute URL as the new current page: document fetch,
// parse, then supplementary-object fetches. Redirects (301/302) are
// followed up to 5 hops.
func (b *Browser) Navigate(absURL string) (*LoadStats, error) {
	req := httpwire.NewRequest("GET", TargetOf(absURL))
	return b.loadPage(absURL, req)
}

// SubmitForm submits the given form element from the current page with the
// provided field values, loading the result as the new page. Method and
// action come from the form's attributes, resolved against the page URL.
func (b *Browser) SubmitForm(form *dom.Node, fields []httpwire.FormField) (*LoadStats, error) {
	if form == nil || form.Tag != "form" {
		return nil, fmt.Errorf("browser %s: SubmitForm needs a <form> element", b.Name)
	}
	b.mu.Lock()
	pageURL := b.pageURL
	b.mu.Unlock()
	action := form.AttrOr("action", pageURL)
	absAction, err := Resolve(pageURL, action)
	if err != nil {
		return nil, err
	}
	method := form.AttrOr("method", "get")
	encoded := httpwire.EncodeForm(fields)
	if method == "post" || method == "POST" {
		req := httpwire.NewRequest("POST", TargetOf(absAction))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		req.Body = []byte(encoded)
		return b.loadPage(absAction, req)
	}
	target := absAction
	if encoded != "" {
		target += "?" + encoded
	}
	return b.loadPage(target, httpwire.NewRequest("GET", TargetOf(target)))
}

// loadPage performs the document transaction, parses, renders objects, and
// installs the result as the current page.
func (b *Browser) loadPage(absURL string, req *httpwire.Request) (*LoadStats, error) {
	stats := &LoadStats{URL: absURL}
	resp, txn, err := b.do(absURL, req)
	if err != nil {
		return nil, err
	}
	for hops := 0; resp.StatusCode == 301 || resp.StatusCode == 302; hops++ {
		if hops >= 5 {
			return nil, fmt.Errorf("browser %s: redirect loop at %s", b.Name, absURL)
		}
		loc := resp.Header.Get("Location")
		if loc == "" {
			return nil, fmt.Errorf("browser %s: redirect without Location from %s", b.Name, absURL)
		}
		absURL, err = Resolve(absURL, loc)
		if err != nil {
			return nil, err
		}
		resp, txn, err = b.do(absURL, httpwire.NewRequest("GET", TargetOf(absURL)))
		if err != nil {
			return nil, err
		}
	}
	if resp.StatusCode != 200 {
		return nil, &StatusError{Browser: b.Name, URL: absURL, StatusCode: resp.StatusCode, Header: resp.Header}
	}
	stats.URL = absURL
	stats.DocTxn = txn
	doc := dom.Parse(string(resp.Body))

	obs := NewDownloadObserver()
	objects, err := b.fetchObjects(doc, absURL, obs)
	if err != nil {
		return nil, err
	}
	stats.Objects = objects

	b.mu.Lock()
	b.pageURL = absURL
	b.doc = doc
	b.Observer = obs
	b.history = append(b.history, absURL)
	b.bumpLocked()
	subs := append([]func(){}, b.onChange...)
	b.mu.Unlock()
	for _, fn := range subs {
		fn()
	}
	return stats, nil
}

// ObjectRefs extracts the supplementary-object references of a document in
// document order: stylesheets, scripts, images, frames, and embedded
// objects.
func ObjectRefs(doc *dom.Document) []string {
	var refs []string
	doc.Root.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		switch n.Tag {
		case "link":
			if rel, _ := n.Attr("rel"); rel == "stylesheet" {
				if href, ok := n.Attr("href"); ok && href != "" {
					refs = append(refs, href)
				}
			}
		case "script", "img", "frame", "iframe":
			if src, ok := n.Attr("src"); ok && src != "" {
				refs = append(refs, src)
			}
		case "object":
			if data, ok := n.Attr("data"); ok && data != "" {
				refs = append(refs, data)
			}
		}
		return true
	})
	return refs
}

// fetchObjects downloads every supplementary object of doc, recording
// resolutions in obs and populating the cache.
func (b *Browser) fetchObjects(doc *dom.Document, baseURL string, obs *DownloadObserver) ([]ObjectFetch, error) {
	var out []ObjectFetch
	seen := make(map[string]bool)
	for _, ref := range ObjectRefs(doc) {
		abs, err := Resolve(baseURL, ref)
		if err != nil {
			continue // an unparseable reference is skipped, as browsers do
		}
		obs.Record(ref, abs)
		if seen[abs] {
			continue
		}
		seen[abs] = true
		fetch, err := b.FetchObject(abs)
		if err != nil {
			// A missing object does not fail the page load; record a
			// zero-byte fetch so the stats still show the attempt.
			out = append(out, ObjectFetch{URL: abs})
			continue
		}
		out = append(out, fetch)
	}
	return out, nil
}

// FetchObject retrieves one object through the cache: a hit costs no
// network traffic; a miss is fetched and cached when the response allows.
func (b *Browser) FetchObject(absURL string) (ObjectFetch, error) {
	if _, ok := b.Cache.Get(absURL); ok {
		return ObjectFetch{URL: absURL, FromCache: true}, nil
	}
	req := httpwire.NewRequest("GET", TargetOf(absURL))
	resp, txn, err := b.do(absURL, req)
	if err != nil {
		return ObjectFetch{}, err
	}
	if resp.StatusCode != 200 {
		return ObjectFetch{}, fmt.Errorf("browser %s: GET %s returned %d", b.Name, absURL, resp.StatusCode)
	}
	if Cacheable(resp.Header.Get("Cache-Control")) {
		b.Cache.Put(&CacheEntry{URL: absURL, ContentType: resp.Header.Get("Content-Type"), Body: resp.Body})
	}
	return ObjectFetch{URL: absURL, Txn: txn}, nil
}

// RenderObjects fetches the supplementary objects of an externally supplied
// document — what the participant browser does after Ajax-Snippet installs
// new content. Object references must already be absolute (non-cache mode)
// or point at the RCB-Agent (cache mode); baseURL anchors any that are not.
// Call it inside WithDocument: it records into the current page's observer.
func (b *Browser) RenderObjects(doc *dom.Document, baseURL string) []ObjectFetch {
	fetches, _ := b.fetchObjects(doc, baseURL, b.Observer)
	return fetches
}

// SetDocument installs a document directly (used by the participant side,
// whose page arrives through the co-browsing channel rather than a page
// load). The document downloaded nothing yet, so its observer starts empty.
func (b *Browser) SetDocument(pageURL string, doc *dom.Document) {
	b.mu.Lock()
	b.pageURL = pageURL
	b.doc = doc
	b.Observer = NewDownloadObserver()
	b.history = append(b.history, pageURL)
	b.bumpLocked()
	subs := append([]func(){}, b.onChange...)
	b.mu.Unlock()
	for _, fn := range subs {
		fn()
	}
}
