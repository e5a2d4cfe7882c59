package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around
// that call. Start and End are nanoseconds since the tracer's origin;
// Parent indexes the causing span in the same buffer (-1 for a root); ID
// is shared by every span of one request or one tick.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32
	ID     int64
}

// spanBuf is one goroutine's span list. Spans of one request are opened
// and closed on the goroutine that sends it (the in-process transport runs
// the handler on the caller), so a buffer needs no lock. A nil buffer
// means tracing is off: every method is a no-op.
type spanBuf struct {
	t0    time.Time
	spans []span
}

const noSpan = int32(-1)

func (b *spanBuf) now() int64 { return int64(time.Since(b.t0)) }

// open starts a span and returns its index.
func (b *spanBuf) open(name string, parent int32, id int64) int32 {
	return b.openAt(name, parent, id, time.Now())
}

// openAt is open with a start instant taken earlier (an open-loop request
// starts when it was due, not when the generator got to it).
func (b *spanBuf) openAt(name string, parent int32, id int64, start time.Time) int32 {
	if b == nil {
		return noSpan
	}
	b.spans = append(b.spans, span{Name: name, Start: int64(start.Sub(b.t0)), Parent: parent, ID: id})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) close(i int32) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].End = b.now()
}

// tracer owns every buffer of one traced run. Buffers share its origin so
// their spans line up on one time axis.
type tracer struct {
	t0   time.Time
	bufs []*spanBuf

	// shared is the one buffer several goroutines append to (the
	// federation's barrier workers report their shard steps here).
	mu     sync.Mutex
	shared *spanBuf
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.shared = t.buf()
	return t
}

// buf returns a new single-goroutine buffer (nil when tracing is off).
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t0: t.t0}
	t.bufs = append(t.bufs, b)
	return b
}

// openShared starts a span in the shared buffer from any goroutine; its
// parent is an index into that buffer. A nil tracer records nothing.
func (t *tracer) openShared(name string, parent int32, id int64) int32 {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shared.open(name, parent, id)
}

func (t *tracer) closeShared(i int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shared.close(i)
}

// spanTotals is the per-name roll-up of a traced run.
type spanTotals struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, the summed duration and the summed
// self time: a span's duration minus the part of its interval that its
// child spans cover (children may overlap each other — barrier workers do
// — so the cover is a union, clipped to the parent).
func selfTimes(spans []span) []spanTotals {
	type iv struct{ s, e int64 }
	kids := make(map[int32][]iv)
	for _, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], iv{sp.Start, sp.End})
		}
	}
	byName := map[string]*spanTotals{}
	for i, sp := range spans {
		dur := sp.End - sp.Start
		if dur < 0 {
			dur = 0
		}
		covered := int64(0)
		if ks := kids[int32(i)]; len(ks) > 0 {
			sort.Slice(ks, func(a, b int) bool { return ks[a].s < ks[b].s })
			edge := sp.Start
			for _, k := range ks {
				s, e := k.s, k.e
				if s < edge {
					s = edge
				}
				if e > sp.End {
					e = sp.End
				}
				if e > s {
					covered += e - s
					edge = e
				}
			}
		}
		t := byName[sp.Name]
		if t == nil {
			t = &spanTotals{Name: sp.Name}
			byName[sp.Name] = t
		}
		t.Count++
		t.TotalMs += float64(dur) / 1e6
		t.SelfMs += float64(dur-covered) / 1e6
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFileSpans caps the spans written out: a scrape run records several
// hundred thousand, and the roll-up already covers all of them.
const traceFileSpans = 20000

type spanJSON struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Parent  int32   `json:"parent"`
	ID      int64   `json:"id"`
	Buf     int     `json:"buf"`
}

type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Env      environment  `json:"env"`
	Spans    int          `json:"spans_recorded"`
	Totals   []spanTotals `json:"totals"`
	First    []spanJSON   `json:"first_spans"`
}

// totals rolls up every buffer. Parents are buffer-local, so each buffer
// is rolled up on its own and the rows are merged by name.
func (t *tracer) totals() (rows []spanTotals, n int) {
	merged := map[string]*spanTotals{}
	for _, b := range t.bufs {
		n += len(b.spans)
		for _, r := range selfTimes(b.spans) {
			m := merged[r.Name]
			if m == nil {
				r := r
				merged[r.Name] = &r
				continue
			}
			m.Count += r.Count
			m.TotalMs += r.TotalMs
			m.SelfMs += r.SelfMs
		}
	}
	for _, m := range merged {
		rows = append(rows, *m)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, n
}

// write dumps the roll-up and the first spans of each buffer to
// dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64, env environment) (string, error) {
	rows, n := t.totals()
	tf := traceFile{Workload: workload, Seed: seed, Env: env, Spans: n, Totals: rows}
	per := traceFileSpans / len(t.bufs)
	for bi, b := range t.bufs {
		for i, sp := range b.spans {
			if i >= per {
				break
			}
			tf.First = append(tf.First, spanJSON{
				Name: sp.Name, StartUs: float64(sp.Start) / 1e3, EndUs: float64(sp.End) / 1e3,
				Parent: sp.Parent, ID: sp.ID, Buf: bi,
			})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
