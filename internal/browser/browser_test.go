package browser

import (
	"strings"
	"testing"

	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/netsim"
	"rcb/internal/sites"
)

func newTestWorld(t *testing.T) (*sites.Corpus, *Browser) {
	t.Helper()
	corpus, err := sites.NewCorpus()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(corpus.Close)
	b := New("host.lan", corpus.Network.Dialer("host.lan"))
	t.Cleanup(b.Close)
	return corpus, b
}

func TestResolve(t *testing.T) {
	cases := []struct{ base, ref, want string }{
		{"http://www.x.com/a/b.html", "/img/i.png", "http://www.x.com/img/i.png"},
		{"http://www.x.com/a/b.html", "img/i.png", "http://www.x.com/a/img/i.png"},
		{"http://www.x.com/a/", "http://cdn.y.com/z.js", "http://cdn.y.com/z.js"},
		{"http://www.x.com/", "?q=1", "http://www.x.com/?q=1"},
		{"https://s.com/p", "/q", "https://s.com/q"},
	}
	for _, c := range cases {
		got, err := Resolve(c.base, c.ref)
		if err != nil || got != c.want {
			t.Errorf("Resolve(%q, %q) = %q, %v; want %q", c.base, c.ref, got, err, c.want)
		}
	}
}

func TestAddrOf(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://www.x.com/p", "www.x.com:80"},
		{"http://www.x.com:3000/p", "www.x.com:3000"},
		{"https://secure.com/", "secure.com:443"},
	}
	for _, c := range cases {
		got, err := AddrOf(c.in)
		if err != nil || got != c.want {
			t.Errorf("AddrOf(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	if _, err := AddrOf("not a url at all ::"); err == nil {
		t.Error("expected error for garbage URL")
	}
	if _, err := AddrOf("/relative/only"); err == nil {
		t.Error("expected error for host-less URL")
	}
}

func TestTargetOf(t *testing.T) {
	if got := TargetOf("http://h/p/q.html?a=1"); got != "/p/q.html?a=1" {
		t.Errorf("got %q", got)
	}
	if got := TargetOf("http://h"); got != "/" {
		t.Errorf("bare host target = %q", got)
	}
}

func TestNavigateLoadsPageAndObjects(t *testing.T) {
	_, b := newTestWorld(t)
	spec := sites.Table1[1] // google.com
	stats, err := b.Navigate("http://" + spec.Host() + "/")
	if err != nil {
		t.Fatal(err)
	}
	if stats.DocTxn.Down <= spec.PageBytes() {
		t.Errorf("doc down bytes %d, want > page size %d (headers included)", stats.DocTxn.Down, spec.PageBytes())
	}
	inv := sites.Inventory(spec)
	if len(stats.Objects) != len(inv) {
		t.Errorf("fetched %d objects, inventory has %d", len(stats.Objects), len(inv))
	}
	if b.Cache.Len() == 0 {
		t.Error("cacheable objects not cached")
	}
	if b.URL() != "http://"+spec.Host()+"/" {
		t.Errorf("URL = %q", b.URL())
	}
	if b.Version() == 0 {
		t.Error("version not bumped")
	}
}

func TestNavigateSecondLoadHitsCache(t *testing.T) {
	_, b := newTestWorld(t)
	spec := sites.Table1[1]
	url := "http://" + spec.Host() + "/"
	if _, err := b.Navigate(url); err != nil {
		t.Fatal(err)
	}
	stats, err := b.Navigate(url)
	if err != nil {
		t.Fatal(err)
	}
	if hits := stats.CacheHits(); hits != len(stats.Objects) {
		t.Errorf("second load: %d/%d cache hits", hits, len(stats.Objects))
	}
	if len(stats.NetworkObjects()) != 0 {
		t.Error("second load should not refetch cacheable objects")
	}
}

func TestNavigateSetsCookies(t *testing.T) {
	_, b := newTestWorld(t)
	spec, _ := sites.SiteByName("facebook.com")
	if _, err := b.Navigate("http://" + spec.Host() + "/"); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Jar.Get("www.facebook.com", "sid"); !ok {
		t.Fatal("session cookie not stored")
	}
}

func TestObserverRecordsResolutions(t *testing.T) {
	_, b := newTestWorld(t)
	spec := sites.Table1[1]
	if _, err := b.Navigate("http://" + spec.Host() + "/"); err != nil {
		t.Fatal(err)
	}
	downloads := b.Observer.Downloads()
	if len(downloads) == 0 {
		t.Fatal("observer recorded nothing")
	}
	for _, abs := range downloads {
		if !IsAbsolute(abs) {
			t.Errorf("observer holds non-absolute URL %q", abs)
		}
	}
	// The generated page uses scheme-less relative refs; the observer must
	// map them back.
	inv := sites.Inventory(spec)
	if abs, ok := b.Observer.Resolve(inv[len(inv)-1].Path); !ok || !strings.HasPrefix(abs, "http://") {
		t.Errorf("relative ref not resolvable: %q %v", abs, ok)
	}
}

// TestObserverKeepsCurrentPageDuringNavigation: while a navigation is
// downloading the next page's objects, a reference the two pages share
// still resolves against the page the browser shows.
func TestObserverKeepsCurrentPageDuringNavigation(t *testing.T) {
	network := netsim.NewNetwork()
	served := make(chan struct{}, 1)
	for _, host := range []string{"a.test", "b.test"} {
		host := host
		l, err := network.Listen(host + ":80")
		if err != nil {
			t.Fatal(err)
		}
		srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
			if req.Path() == "/x.png" {
				if host == "b.test" {
					select {
					case served <- struct{}{}:
					default:
					}
				}
				return httpwire.NewResponse(200, "image/png", []byte("png"))
			}
			return httpwire.NewResponse(200, "text/html", []byte(`<html><head></head><body><img src="x.png"></body></html>`))
		})}
		srv.Start(l)
		t.Cleanup(srv.Close)
	}
	b := New("host.lan", network.Dialer("host.lan"))
	t.Cleanup(b.Close)
	if _, err := b.Navigate("http://a.test/"); err != nil {
		t.Fatal(err)
	}
	navErr := make(chan error, 1)
	var got string
	err := b.WithDocument(func(string, *dom.Document) error {
		go func() {
			_, err := b.Navigate("http://b.test/")
			navErr <- err
		}()
		<-served
		got, _ = b.Observer.Resolve("x.png")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-navErr; err != nil {
		t.Fatal(err)
	}
	if got != "http://a.test/x.png" {
		t.Errorf("mid-navigation resolve of the current page = %q, want http://a.test/x.png", got)
	}
	if abs, _ := b.Observer.Resolve("x.png"); abs != "http://b.test/x.png" {
		t.Errorf("after navigation resolve = %q, want http://b.test/x.png", abs)
	}
	// A directly installed document downloaded nothing: b's resolution must
	// not leak into it.
	b.SetDocument("http://a.test/", dom.Parse(`<html><head></head><body><img src="x.png"></body></html>`))
	if abs, ok := b.Observer.Resolve("x.png"); ok {
		t.Errorf("after SetDocument resolve = %q, want no recorded download", abs)
	}
}

func TestSubmitFormGET(t *testing.T) {
	corpus, b := newTestWorld(t)
	_ = corpus
	if _, err := b.Navigate("http://" + sites.ShopHost + "/"); err != nil {
		t.Fatal(err)
	}
	var form *dom.Node
	err := b.WithDocument(func(_ string, doc *dom.Document) error {
		form = doc.ByID("search")
		return nil
	})
	if err != nil || form == nil {
		t.Fatalf("no search form: %v", err)
	}
	if _, err := b.SubmitForm(form, []httpwire.FormField{{Name: "q", Value: "macbook"}}); err != nil {
		t.Fatal(err)
	}
	err = b.WithDocument(func(url string, doc *dom.Document) error {
		if !strings.Contains(url, "q=macbook") {
			t.Errorf("URL after GET submit = %q", url)
		}
		if doc.ByID("results") == nil {
			t.Error("results page not loaded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubmitFormPOSTKeepsSession(t *testing.T) {
	corpus, b := newTestWorld(t)
	if _, err := b.Navigate("http://" + sites.ShopHost + "/"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Navigate("http://" + sites.ShopHost + "/product/1"); err != nil {
		t.Fatal(err)
	}
	var form *dom.Node
	b.WithDocument(func(_ string, doc *dom.Document) error {
		form = doc.ByID("addtocart")
		return nil
	})
	if form == nil {
		t.Fatal("no add-to-cart form")
	}
	if _, err := b.SubmitForm(form, []httpwire.FormField{{Name: "product", Value: "1"}}); err != nil {
		t.Fatal(err)
	}
	sid, _ := b.Jar.Get("shop.example", "sid")
	if items := corpus.Shop.CartItems(sid); len(items) != 1 || items[0] != 1 {
		t.Fatalf("cart = %v", items)
	}
}

func TestApplyMutationBumpsVersionAndNotifies(t *testing.T) {
	_, b := newTestWorld(t)
	if _, err := b.Navigate("http://" + sites.MapsHost + "/"); err != nil {
		t.Fatal(err)
	}
	v := b.Version()
	notified := 0
	b.OnChange(func() { notified++ })
	err := b.ApplyMutation(func(doc *dom.Document) error {
		dom.SetInnerHTML(doc.ByID("status"), "moved")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Version() != v+1 {
		t.Errorf("version = %d, want %d", b.Version(), v+1)
	}
	if notified != 1 {
		t.Errorf("notified %d times", notified)
	}
}

func TestApplyMutationErrorDoesNotBump(t *testing.T) {
	_, b := newTestWorld(t)
	if _, err := b.Navigate("http://" + sites.MapsHost + "/"); err != nil {
		t.Fatal(err)
	}
	v := b.Version()
	wantErr := b.ApplyMutation(func(*dom.Document) error {
		return errTest
	})
	if wantErr != errTest {
		t.Fatalf("err = %v", wantErr)
	}
	if b.Version() != v {
		t.Error("failed mutation must not bump version")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

func TestWithDocumentNoPage(t *testing.T) {
	b := New("x", nil) // never dials
	if err := b.WithDocument(func(string, *dom.Document) error { return nil }); err == nil {
		t.Fatal("WithDocument before any navigation must error")
	}
	if err := b.ApplyMutation(func(*dom.Document) error { return nil }); err == nil {
		t.Fatal("ApplyMutation before any navigation must error")
	}
}

func TestNavigate404(t *testing.T) {
	_, b := newTestWorld(t)
	if _, err := b.Navigate("http://" + sites.ShopHost + "/definitely-missing"); err == nil {
		t.Fatal("404 navigation must error")
	}
}

func TestObjectRefsExtraction(t *testing.T) {
	doc := dom.Parse(`<html><head>
		<link rel="stylesheet" href="/a.css">
		<link rel="icon" href="/fav.ico">
		<script src="/s.js"></script>
		<script>inline();</script>
	</head><body>
		<img src="/i.png"><img src="">
		<iframe src="/frame.html"></iframe>
		<object data="/movie.swf"></object>
	</body></html>`)
	refs := ObjectRefs(doc)
	want := []string{"/a.css", "/s.js", "/i.png", "/frame.html", "/movie.swf"}
	if len(refs) != len(want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("refs[%d] = %q, want %q", i, refs[i], want[i])
		}
	}
}

func TestCookieJar(t *testing.T) {
	j := NewCookieJar()
	j.SetFromHeader("a.com", "sid=xyz; Path=/; HttpOnly")
	j.SetFromHeader("a.com", "theme=dark")
	j.SetFromHeader("b.com", "sid=other")
	if got := j.Header("a.com"); got != "sid=xyz; theme=dark" {
		t.Errorf("header = %q", got)
	}
	if v, ok := j.Get("b.com", "sid"); !ok || v != "other" {
		t.Errorf("b.com sid = %q %v", v, ok)
	}
	if got := j.Header("c.com"); got != "" {
		t.Errorf("empty host header = %q", got)
	}
	j.SetFromHeader("a.com", "") // ignored
	j.SetFromHeader("a.com", "novalue")
	if got := j.Header("a.com"); got != "sid=xyz; theme=dark" {
		t.Errorf("malformed set-cookie changed jar: %q", got)
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache()
	c.Put(&CacheEntry{URL: "http://x/i.png", ContentType: "image/png", Body: []byte("abc")})
	if !c.Has("http://x/i.png") || c.Len() != 1 {
		t.Fatal("put/has broken")
	}
	e, ok := c.Get("http://x/i.png")
	if !ok || string(e.Body) != "abc" {
		t.Fatal("get broken")
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("clear broken")
	}
}

func TestCacheable(t *testing.T) {
	cases := []struct {
		cc   string
		want bool
	}{
		{"max-age=3600", true},
		{"public, max-age=60", true},
		{"no-store", false},
		{"no-cache", false},
		{"max-age=60, no-store", false},
		{"", false},
	}
	for _, c := range cases {
		if got := Cacheable(c.cc); got != c.want {
			t.Errorf("Cacheable(%q) = %v", c.cc, got)
		}
	}
}
