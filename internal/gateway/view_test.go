package gateway

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/inproc"
	"repro/internal/simclock"
)

// askView sends one GET through serveView against cache and reports what
// went out and whether the body had to be rendered. render stands in for a
// route's: the body names its key.
func askView(cache *view, key string, version int, inm string) (rec *httptest.ResponseRecorder, renderedNow bool) {
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec = httptest.NewRecorder()
	serveView(rec, req, cache, key, version, false, func() (string, []byte, error) {
		renderedNow = true
		return key, []byte("body of " + key), nil
	})
	return rec, renderedNow
}

// TestInventoryCacheBound: a store's rendered versions stay bounded no
// matter the access pattern — including a client scraping archived history
// newest-to-oldest, where no kept body is older than the requested one.
// Told from outside: after the scrape the newest eight versions answer
// without a render and the ninth does not.
func TestInventoryCacheBound(t *testing.T) {
	fed, gw := newFederatedCampaign(t, simclock.Hour)
	c := inproc.Client(gw)
	f := fed.Shards()[0].F
	nodes := f.TB.Nodes()
	for u := 0; u < 40; u++ {
		n := nodes[u%len(nodes)]
		inv := n.Inv.Clone()
		inv.RAMGB = 16 + u
		if err := f.Ref.Update(f.Clock.Now(), n.Name, inv); err != nil {
			t.Fatal(err)
		}
	}
	latest := f.Ref.VersionCount()
	for v := latest; v >= 1; v-- {
		resp, _ := get(t, c, fmt.Sprintf("%s&version=%d", storePath(fed.Shards()[0], "inventory"), v))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("version %d status = %d", v, resp.StatusCode)
		}
	}
	kept := &gw.shards[0].inv
	for v := latest; v > latest-archivedBodies; v-- {
		if _, renderedNow := askView(kept, "v"+strconv.Itoa(v), v, ""); renderedNow {
			t.Errorf("version %d of %d was rendered again: the newest %d should be kept", v, latest, archivedBodies)
		}
	}
	if _, renderedNow := askView(kept, "v"+strconv.Itoa(latest-archivedBodies), latest-archivedBodies, ""); !renderedNow {
		t.Errorf("version %d answered without a render: more than %d bodies are kept", latest-archivedBodies, archivedBodies)
	}
}

// TestViewKeepsHighestVersionsOverACycle pins the eviction rule to what
// the benchmark's cold walk needs: 11 versions asked for in ascending
// order, three times over, through a view of 8. Giving up the lowest
// version keeps 4..11, so every later pass renders three bodies and finds
// eight; evicting the oldest insertion (or the least recently used) would
// render all eleven on every pass.
func TestViewKeepsHighestVersionsOverACycle(t *testing.T) {
	cache := &view{bound: archivedBodies}
	const versions, passes = 11, 3
	for pass := 1; pass <= passes; pass++ {
		renders := 0
		for v := 1; v <= versions; v++ {
			rec, renderedNow := askView(cache, "v"+strconv.Itoa(v), v, "")
			if renderedNow {
				renders++
			}
			if got, want := rec.Body.String(), "body of v"+strconv.Itoa(v); got != want {
				t.Fatalf("pass %d version %d: body %q, want %q", pass, v, got, want)
			}
		}
		want := versions - archivedBodies
		if pass == 1 {
			want = versions
		}
		if renders != want {
			t.Errorf("pass %d rendered %d of %d versions, want %d", pass, renders, versions, want)
		}
	}
}

// TestViewOneBodyAlwaysReplaces: a one-body view follows the key, whichever
// way it moves.
func TestViewOneBodyAlwaysReplaces(t *testing.T) {
	var cache view
	for _, key := range []string{"v2.2", "v2.2|down:nantes", "v2.2"} {
		if _, renderedNow := askView(&cache, key, 0, ""); !renderedNow {
			t.Errorf("%s answered from a view that held another key", key)
		}
		if _, renderedNow := askView(&cache, key, 0, ""); renderedNow {
			t.Errorf("%s rendered twice in a row", key)
		}
	}
}

// TestServeViewAnswersUnderTheKeyRendered: when the state moved between
// computing the key and rendering, the body goes out — and is kept — under
// the key the render read, and the older key holds nothing.
func TestServeViewAnswersUnderTheKeyRendered(t *testing.T) {
	var cache view
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	rec := httptest.NewRecorder()
	serveView(rec, req, &cache, "inc7", 0, false, func() (string, []byte, error) {
		return "inc8", []byte("eight"), nil
	})
	if got := rec.Header().Get("ETag"); got != `"inc8"` || rec.Body.String() != "eight" {
		t.Fatalf("answered ETag %s body %q, want \"inc8\" eight", got, rec.Body.String())
	}
	if _, renderedNow := askView(&cache, "inc8", 0, ""); renderedNow {
		t.Error("the body was not kept under the key it was rendered at")
	}
	if rec, _ := askView(&cache, "inc8", 0, `"inc8"`); rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Errorf("conditional GET = %d with %d body bytes, want an empty 304", rec.Code, rec.Body.Len())
	}
}

// TestServeViewHammer: eight goroutines alternate between two keys on one
// one-body view (the /ref/diff shape: a cold range beside the hot one).
// Renders run outside the view's lock, so neither key waits for the other;
// whatever interleaving happens, every answer's bytes are its ETag's.
func TestServeViewHammer(t *testing.T) {
	var cache view
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := "v1-v" + strconv.Itoa(2+(g+i)%2)
				rec, _ := askView(&cache, key, 0, "")
				if etag, body := rec.Header().Get("ETag"), rec.Body.String(); etag != `"`+key+`"` || body != "body of "+key {
					t.Errorf("asked %s: ETag %s with body %q", key, etag, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// flippingChaos is a controller under which an outage lands in the middle
// of every request: the first LostSites answer after arm says the grid is
// whole, every later one that site is down.
type flippingChaos struct {
	ChaosController
	site  string
	calls atomic.Int32
}

func (c *flippingChaos) LostSites() (down, unreachable []string) {
	if c.calls.Add(1) == 1 {
		return nil, nil
	}
	return []string{c.site}, nil
}

// TestMergedReadSeesOneGridState: a merged response either carries the
// degraded marker (and the "|down:" key) or shows every site. With the
// outage landing after the marker was taken, the body must be the whole
// grid's, byte for byte — not one that silently omits the site.
func TestMergedReadSeesOneGridState(t *testing.T) {
	fed, gw := newFederatedCampaign(t, 2*simclock.Day)
	c := inproc.Client(gw)
	paths := []string{"/ref/inventory", "/ref/diff", "/oar/resources", "/oar/jobs", "/bugs", "/status/grid", "/status/trend"}
	type answer struct{ etag, body string }
	whole := map[string]answer{}
	for _, p := range paths {
		resp, body := get(t, c, p)
		whole[p] = answer{resp.Header.Get("ETag"), string(body)}
	}
	chaos := &flippingChaos{ChaosController: fed, site: gw.sites[len(gw.sites)-1]}
	gw.chaos = chaos
	for _, p := range paths {
		chaos.calls.Store(0)
		resp, body := get(t, c, p)
		got := answer{resp.Header.Get("ETag"), string(body)}
		if strings.Contains(got.body, `"degraded"`) {
			t.Fatalf("GET %s: the fake's first answer was a whole grid, yet the body is marked degraded", p)
		}
		if got != whole[p] {
			t.Errorf("GET %s with an outage landing mid-request: ETag %s, %d body bytes and no degraded marker; the whole grid's answer is ETag %s, %d bytes",
				p, got.etag, len(got.body), whole[p].etag, len(whole[p].body))
		}
	}
}

// vanishingChaos lists two active events of which the first has closed by
// the time anyone heals it — a scheduled heal fired on a live step, or a
// second operator was quicker.
type vanishingChaos struct{ ChaosController }

func (vanishingChaos) ActiveGridEvents() []faults.GridEvent {
	return []faults.GridEvent{{ID: 1, Kind: faults.SiteOutage, Sites: []string{"nantes"}}, {ID: 2, Kind: faults.WANPartition, Sites: []string{"luxembourg"}}}
}

func (vanishingChaos) HealGrid(id int) (faults.GridEvent, error) {
	if id == 1 {
		return faults.GridEvent{}, errors.New("no active grid event 1")
	}
	return faults.GridEvent{ID: id, Kind: faults.WANPartition, Sites: []string{"luxembourg"}, Healed: true}, nil
}

// TestHealAllSkipsAnEventAlreadyGone: "heal everything" is not refused
// half-way because one listed event healed under it; it reports the ones it
// closed.
func TestHealAllSkipsAnEventAlreadyGone(t *testing.T) {
	fed, gw := newFederatedCampaign(t, 0)
	gw.chaos = vanishingChaos{fed}
	resp, body := postJSON(t, inproc.Client(gw), "/chaos/heal", `{"all":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heal all = %d %s, want 200", resp.StatusCode, body)
	}
	if healed := decode[ChaosHealResponse](t, body).Healed; len(healed) != 1 || healed[0].ID != 2 || !healed[0].Healed {
		t.Fatalf("healed = %+v, want event 2 alone", healed)
	}
}

// FuzzETagMatches holds the If-None-Match comparison to its contract on
// arbitrary header text: it never panics, an absent header matches nothing,
// "*" matches everything, and a quoted tag matches itself — bare, as a weak
// validator, and anywhere in a list. Its seeds are the corpus checked in
// under testdata/fuzz/FuzzETagMatches, which a plain `go test` runs too.
func FuzzETagMatches(f *testing.F) {
	f.Fuzz(func(t *testing.T, header, tag string) {
		etag := `"` + tag + `"`
		etagMatches(header, etag)
		if etagMatches("", etag) {
			t.Errorf("an absent If-None-Match matched %s", etag)
		}
		if !etagMatches("*", etag) {
			t.Errorf("* did not match %s", etag)
		}
		if strings.Contains(tag, ",") {
			return // not a tag this gateway issues: the list splits on commas
		}
		for _, h := range []string{etag, "W/" + etag, header + ", " + etag, etag + "," + header, header + ",W/" + etag + " ," + header} {
			if !etagMatches(h, etag) {
				t.Errorf("If-None-Match %q did not match %s", h, etag)
			}
		}
	})
}
