package gateway

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/inproc"
	"repro/internal/simclock"
)

// TestServeViewAnswersUnderTheKeyRendered: when the state moved between
// computing the key and rendering, the body goes out under the key the
// render read; a conditional GET carrying that key is answered 304 without
// a render.
func TestServeViewAnswersUnderTheKeyRendered(t *testing.T) {
	ask := func(key, inm string) (rec *httptest.ResponseRecorder, renderedNow bool) {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec = httptest.NewRecorder()
		serveView(rec, req, key, false, func() (string, []byte, error) {
			renderedNow = true
			return "inc8", []byte("eight"), nil
		})
		return rec, renderedNow
	}
	rec, _ := ask("inc7", "")
	if got := rec.Header().Get("ETag"); got != `"inc8"` || rec.Body.String() != "eight" {
		t.Fatalf("answered ETag %s body %q, want \"inc8\" eight", got, rec.Body.String())
	}
	rec, renderedNow := ask("inc8", `"inc8"`)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 || renderedNow {
		t.Errorf("conditional GET = %d with %d body bytes (rendered: %v), want an empty 304 and no render",
			rec.Code, rec.Body.Len(), renderedNow)
	}
	if got := rec.Header().Get("ETag"); got != `"inc8"` {
		t.Errorf("304 carries ETag %s, want \"inc8\"", got)
	}
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
