package gateway

// The one conditional-GET path. Every route that answers under a strong
// ETag — the /ref, /grid, /incidents, /bugs/rollup and /reliability/trend
// families — computes its key from version counters alone and hands the
// rest of the request to serveView.

import (
	"net/http"
	"strings"
	"sync"

	"repro/internal/wire"
)

// archivedBodies bounds the one view that holds more than a single body: a
// store's rendered versions.
const archivedBodies = 8

// immutableVersion lets clients cache an archived version hard: it cannot
// change any more.
const immutableVersion = "public, max-age=86400"

// view caches the rendered bodies of one conditional-GET route under the
// keys their ETags carry. The zero value keeps one body, which is all a
// route whose key moves with the campaign needs: conditional clients are
// answered 304 before the view is looked at, and the rest ask for the
// current key until the next one replaces it.
type view struct {
	mu      sync.Mutex
	bound   int // bodies kept; 0 means 1
	entries []viewEntry
}

type viewEntry struct {
	key     string
	version int // store version the body renders; 0 on one-body views
	body    []byte
}

func (c *view) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.entries {
		if c.entries[i].key == key {
			return c.entries[i].body, true
		}
	}
	return nil, false
}

// store keeps body under key. A full view gives up its lowest version, and
// keeps what it has when body's own version is lower still. Campaigns
// archive thousands of versions and traffic concentrates on the newest few,
// so under churn the hot current version stays; and a scraper cycling
// through more versions than the view holds still hits on all but the
// lowest ones every pass (8 of 11 on the benchmark's cold walk), where
// evicting the oldest insertion or the least recently used would miss on
// every request. On a one-body view every version is 0, so the newcomer
// always replaces.
func (c *view) store(key string, version int, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lowest := 0
	for i := range c.entries {
		if c.entries[i].key == key {
			return // raced with another renderer of the same bytes
		}
		if c.entries[i].version < c.entries[lowest].version {
			lowest = i
		}
	}
	e := viewEntry{key: key, version: version, body: body}
	if len(c.entries) < max(c.bound, 1) {
		c.entries = append(c.entries, e)
	} else if c.entries[lowest].version <= version {
		c.entries[lowest] = e
	}
}

// rendered is the usual end of a render function: v as the wire renders it,
// under the key it was read at.
func rendered(key string, v any) (string, []byte, error) {
	body, err := wire.MarshalIndent(v)
	return key, body, err
}

// serveView answers a GET whose body is a pure function of key, the strong
// ETag's payload, which the caller computed without materializing anything.
// A matching If-None-Match is answered 304 before the view is consulted; a
// body the view holds is served as is; otherwise render runs — outside the
// view's lock, so a hit never queues behind a miss marshaling a
// multi-thousand-node snapshot, at the price of a duplicate render under
// contention — and returns the body with the key of the state it actually
// read, which is the key the body is kept and served under: a campaign step
// between computing key and rendering moves the answer to the newer key
// instead of filing newer state under the older one. version orders the
// bodies of a multi-body view (see store); immutable marks an archived
// version.
func serveView(w http.ResponseWriter, r *http.Request, cache *view, key string, version int, immutable bool,
	render func() (string, []byte, error)) {
	var body []byte
	etag := `"` + key + `"`
	notModified := etagMatches(r.Header.Get("If-None-Match"), etag)
	if !notModified {
		var ok bool
		if body, ok = cache.lookup(key); !ok {
			var err error
			if key, body, err = render(); err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
			cache.store(key, version, body)
			etag = `"` + key + `"`
		}
	}
	w.Header().Set("ETag", etag)
	if immutable {
		w.Header().Set("Cache-Control", immutableVersion)
	}
	if notModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck
}

// etagMatches implements the If-None-Match comparison for strong ETags:
// "*" matches anything, otherwise any listed tag must equal etag (weak
// validators — W/ prefixed — are compared by their opaque part, per the
// weak comparison RFC 9110 prescribes for If-None-Match).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}
