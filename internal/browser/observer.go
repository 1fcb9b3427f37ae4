package browser

import "sync"

// DownloadObserver records the complete URL of every object-download
// request the browser issues, keyed by the reference string that appeared
// in the document. It models the nsIObserverService hook RCB-Agent uses to
// "record complete URL addresses for all the object downloading requests"
// so URL conversion on the cloned document is exact (paper §4.1.2).
type DownloadObserver struct {
	mu          sync.RWMutex
	resolutions map[string]string // document reference → absolute URL
	order       []string          // absolute URLs in download order
}

// NewDownloadObserver returns an empty observer.
func NewDownloadObserver() *DownloadObserver {
	return &DownloadObserver{resolutions: make(map[string]string)}
}

// Record notes that the reference ref in the current document resolved to
// the absolute URL abs and was downloaded.
func (o *DownloadObserver) Record(ref, abs string) {
	o.mu.Lock()
	if _, seen := o.resolutions[ref]; !seen {
		o.order = append(o.order, abs)
	}
	o.resolutions[ref] = abs
	o.mu.Unlock()
}

// Resolve returns the recorded absolute URL for a document reference.
func (o *DownloadObserver) Resolve(ref string) (string, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	abs, ok := o.resolutions[ref]
	return abs, ok
}

// Downloads returns the absolute URLs recorded so far, in first-seen order.
func (o *DownloadObserver) Downloads() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return append([]string(nil), o.order...)
}
