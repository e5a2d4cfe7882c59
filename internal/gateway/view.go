package gateway

// The one conditional-GET path. Every route that answers under a strong
// ETag — the /ref, /grid, /incidents, /bugs/rollup and /reliability/trend
// families — computes its key from version counters alone and hands the
// rest of the request to serveView, which keeps nothing: a conditional
// client is answered 304 before anything is materialized, and every other
// request calls the route's render function. The one body worth keeping, a
// store version's, lives on the immutable refapi.Snapshot it renders
// (Snapshot.Body).

import (
	"net/http"
	"strings"

	"repro/internal/wire"
)

// immutableVersion lets clients cache an archived version hard: it cannot
// change any more.
const immutableVersion = "public, max-age=86400"

// rendered is the usual end of a render function: v as the wire renders it,
// under the key it was read at.
func rendered(key string, v any) (string, []byte, error) {
	body, err := wire.MarshalIndent(v)
	return key, body, err
}

// serveView answers a GET whose body is a pure function of key, the strong
// ETag's payload, which the caller computed without materializing anything.
// A matching If-None-Match is answered 304 before render runs; otherwise
// render returns the body with the key of the state it actually read, which
// is the key the body goes out under: a campaign step between computing key
// and rendering moves the answer to the newer key instead of filing newer
// state under the older one. immutable marks an archived version.
func serveView(w http.ResponseWriter, r *http.Request, key string, immutable bool,
	render func() (string, []byte, error)) {
	var body []byte
	etag := `"` + key + `"`
	notModified := etagMatches(r.Header.Get("If-None-Match"), etag)
	if !notModified {
		var err error
		if key, body, err = render(); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		etag = `"` + key + `"`
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
