package main

import (
	"context"
	"hash/maphash"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/inproc"
)

// kind groups routes by the gateway path they take, for the per-layer
// rows. It is orthogonal to hot/cold.
type kind uint8

const (
	kindSite    kind = iota // /sites/{s}/... and /sites: one site's shards, or none
	kindMerge               // scatter-gather over every shard
	kindArchive             // /grid/at, /grid/diff, archived inventory versions
	kindMonitor             // monitor queries (may answer 502 by design)
	kindProbe               // dry-run submissions
	kindSubmit              // real submissions, anchored or through admission
	kindStatusGrid
	kindStatusTrend
	kindOther
)

// expect names the statuses a request may answer with.
type expect uint8

const (
	expGet     expect = iota // 200, or 304 when an If-None-Match was sent
	expMonitor               // 200, or 502 from a flaky kwapi or a miswired probe
	expProbe                 // 200
	expSubmit                // 201
	expAdmit                 // 201 placed or 202 queued; 429 is a refusal
)

// reqSpec is one scripted request, generated from the seed before timing.
type reqSpec struct {
	post bool
	path string
	body string
	cond bool // conditional GET: send the ETag this client last saw for path
	cold bool
	kind kind
	exp  expect
}

// reqRec is what a client keeps of one completed request.
type reqRec struct {
	latNs     int64 // send→done (closed loop) or due→done (open loop)
	rtNs      int64 // client round trip (traced runs)
	handlerNs int64 // time inside the gateway handler (traced runs)
	lateNs    int64 // dispatch − due (open loop)
	queued    bool  // the client was still busy when this request was due
	status    int16
	bytes     int32
	cold      bool
	kind      kind
	failed    bool
}

// handlerTrace travels with a traced request so the timing handler can
// hang its span under the request's round-trip span.
type handlerTrace struct {
	buf    *spanBuf
	parent int32
	id     int64
	ns     int64
}

type handlerTraceKey struct{}

// timingHandler wraps the gateway handed to the in-process transport: the
// time between its entry and exit is the gateway layer's, and the client's
// round trip minus it is the transport's.
type timingHandler struct{ next http.Handler }

func (h timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ht, _ := r.Context().Value(handlerTraceKey{}).(*handlerTrace)
	if ht == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	sp := ht.buf.open("gateway.ServeHTTP", ht.parent, ht.id)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	ht.ns = int64(time.Since(start))
	ht.buf.close(sp)
}

var hashSeed = maphash.MakeSeed()

// client is the load-generating goroutine's state: its transport, its
// ETag memory, its records and its checks.
type client struct {
	hc     *http.Client
	buf    *spanBuf          // nil: tracing off
	etags  map[string]string // path → last ETag seen
	bodies map[string]uint64 // path + ETag → hash of the body that carried it
	recs   []reqRec
	t      tally

	badGateway int // 502s accepted on monitor routes, counted apart

	// heap is sampled after every heapEvery-th answer, outside the timed
	// part of the request.
	heap      heapPeak
	heapEvery int
}

func newClient(h http.Handler, tr *tracer, heapEvery int) *client {
	c := &client{etags: map[string]string{}, bodies: map[string]uint64{}, buf: tr.buf(), heapEvery: heapEvery}
	if tr != nil {
		h = timingHandler{h}
	}
	c.hc = inproc.Client(h)
	return c
}

// do sends one scripted request and checks its answer. due is when the
// request was scheduled (zero in a closed loop: latency then runs from
// the send). parent is the span the request hangs under.
func (c *client) do(spec *reqSpec, id int64, due time.Time, parent int32) {
	method, body := http.MethodGet, io.Reader(nil)
	if spec.post {
		method, body = http.MethodPost, strings.NewReader(spec.body)
	}
	rec := reqRec{cold: spec.cold, kind: spec.kind}
	req, err := http.NewRequest(method, "http://gateway.local"+spec.path, body)
	if err != nil {
		rec.failed = true
		c.t.ops(1)
		c.t.fail("%s: %v", spec.path, err)
		c.recs = append(c.recs, rec)
		return
	}
	sent := ""
	if spec.cond {
		if sent = c.etags[spec.path]; sent != "" {
			req.Header.Set("If-None-Match", sent)
		}
	}
	if spec.post {
		req.Header.Set("Content-Type", "application/json")
	}

	send := time.Now()
	from := send
	if !due.IsZero() {
		from = due
		rec.lateNs = int64(send.Sub(due))
	}
	reqSpan := c.buf.openAt("request", parent, id, from)
	var ht *handlerTrace
	rtSpan := noSpan
	if c.buf != nil {
		rtSpan = c.buf.open("inproc.RoundTrip", reqSpan, id)
		ht = &handlerTrace{buf: c.buf, parent: rtSpan, id: id}
		req = req.WithContext(context.WithValue(req.Context(), handlerTraceKey{}, ht))
	}
	rtStart := time.Now()
	resp, err := c.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	c.buf.close(rtSpan)
	c.buf.close(reqSpan)
	rec.latNs = int64(done.Sub(from))
	if ht != nil {
		rec.rtNs = int64(done.Sub(rtStart))
		rec.handlerNs = ht.ns
	}

	c.t.ops(1)
	if err != nil {
		rec.failed = true
		c.t.fail("%s: %v", spec.path, err)
		c.recs = append(c.recs, rec)
		return
	}
	rec.status, rec.bytes = int16(resp.StatusCode), int32(len(data))
	if msg := c.verify(spec, sent, resp, data); msg != "" {
		rec.failed = true
		c.t.fail("%s %s: %s", method, spec.path, msg)
	}
	c.recs = append(c.recs, rec)
	if len(c.recs)%c.heapEvery == 0 {
		c.heap.sample()
	}
}

// verify checks one answer: the status must be in the route's accepted
// set, a 304 must echo the ETag that was sent, and an ETag seen before
// must carry the body it carried before.
func (c *client) verify(spec *reqSpec, sent string, resp *http.Response, data []byte) string {
	code := resp.StatusCode
	ok := false
	switch spec.exp {
	case expGet:
		ok = code == http.StatusOK || (code == http.StatusNotModified && sent != "")
	case expMonitor:
		ok = code == http.StatusOK || code == http.StatusBadGateway
		if code == http.StatusBadGateway {
			c.badGateway++
		}
	case expProbe:
		ok = code == http.StatusOK
	case expSubmit:
		ok = code == http.StatusCreated
	case expAdmit:
		ok = code == http.StatusCreated || code == http.StatusAccepted
	}
	if !ok {
		return "status " + resp.Status + ": " + firstLine(data)
	}
	etag := resp.Header.Get("ETag")
	if code == http.StatusNotModified {
		if etag != sent {
			return "304 echoed ETag " + etag + ", sent " + sent
		}
		return ""
	}
	if etag != "" && code == http.StatusOK {
		key := spec.path + "\x00" + etag
		h := maphash.Bytes(hashSeed, data)
		if prev, seen := c.bodies[key]; seen && prev != h {
			return "ETag " + etag + " repeated with a different body"
		}
		c.bodies[key] = h
		if spec.cond {
			c.etags[spec.path] = etag
		}
	}
	return ""
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

// latenciesMs returns the latency of every record, in milliseconds.
func latenciesMs(recs []reqRec) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = float64(recs[i].latNs) / 1e6
	}
	return out
}

// handlerUs returns the handler time, in microseconds, of the records
// keep selects.
func handlerUs(recs []reqRec, keep func(*reqRec) bool) []float64 {
	var out []float64
	for i := range recs {
		if keep(&recs[i]) {
			out = append(out, float64(recs[i].handlerNs)/1e3)
		}
	}
	return out
}
