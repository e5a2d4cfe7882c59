package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ci"
	"repro/internal/gateway"
	"repro/internal/refapi"
	"repro/internal/testbed"
	"repro/internal/wire"
)

// stdIndent is the reference: encoding/json's own two-pass indenter.
func stdIndent(t testing.TB, src []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, src, "", "  "); err != nil {
		t.Fatalf("json.Indent(%q): %v", src, err)
	}
	return buf.Bytes()
}

// FuzzAppendIndent holds AppendIndent to the standard library's indenter on
// every valid JSON text, and to not panicking on everything else. Its seeds
// — one per rule of the indenter — are the corpus checked in under
// testdata/fuzz/FuzzAppendIndent, which a plain `go test` runs too.
func FuzzAppendIndent(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		prefix := []byte("kept:")
		got := wire.AppendIndent(prefix[:len(prefix):len(prefix)], src)
		if !json.Valid(src) {
			return
		}
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("AppendIndent(%q) overwrote dst: %q", src, got)
		}
		if want := stdIndent(t, src); !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendIndent(%q)\n got %q\nwant %q", src, got[len(prefix):], want)
		}
	})
}

// TestAppendIndentInvalidNeverPanics feeds the truncations a broken writer
// could hand over.
func TestAppendIndentInvalidNeverPanics(t *testing.T) {
	for _, s := range []string{``, ` `, `"`, `"\`, `"abc`, `]`, `}}}`, `{"a":`, `[1,`, `{"a"`, `tru`, "\\"} {
		wire.AppendIndent(nil, []byte(s))
	}
}

// randomValue builds a nested value out of everything encoding/json can
// emit: empty and nil containers, strings needing every kind of escape,
// integers, floats across the exponent switch, booleans and null.
func randomValue(rng *rand.Rand, depth int) any {
	stringsOf := []string{"", "plain", `q"uote`, `back\slash`, "{ } [ ] , :", "<script>&amp;</script>",
		"  ", "tab\there", "nl\nhere", "é世界\x00\x1f", "\xff invalid utf8"}
	n := 9
	if depth <= 0 {
		n = 7
	}
	switch rng.Intn(n) {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 0
	case 2:
		return rng.Int63n(1<<40) - 1<<39
	case 3:
		return math.Ldexp(rng.Float64()-0.5, rng.Intn(200)-100)
	case 4, 5:
		return stringsOf[rng.Intn(len(stringsOf))]
	case 6:
		if rng.Intn(2) == 0 {
			return []any{}
		}
		return map[string]any{}
	case 7:
		out := make([]any, rng.Intn(5))
		for i := range out {
			out[i] = randomValue(rng, depth-1)
		}
		return out
	default:
		out := map[string]any{}
		for i := rng.Intn(5); i > 0; i-- {
			out[stringsOf[rng.Intn(len(stringsOf))]+fmt.Sprint(i)] = randomValue(rng, depth-1)
		}
		return out
	}
}

// wireValues are the bodies the three packages behind wire actually send,
// plus seeded random ones.
func wireValues() map[string]any {
	tb := testbed.Generate(testbed.DefaultSpec[:2])
	snap := refapi.NewStore(tb, 0).Current()
	vals := map[string]any{
		"refapi.Snapshot": snap,
		"gateway.GridJSON": gateway.GridJSON{
			Families: []string{"refapi", "oarstate"}, Targets: []string{},
			OKRatePct: 87.5,
			Cells: map[string]map[string]gateway.GridCellJSON{
				"refapi":   {"sol": {Result: "SUCCESS", Build: 3, AtSec: 86400}, "<edel>": {Result: "FAILURE", Build: 1, AtSec: 1e21}},
				"oarstate": {},
			},
		},
		"ci.JobDetailJSON": ci.JobDetailJSON{
			JobJSON: ci.JobJSON{Name: "environments/sol", Matrix: true, CellCount: 2, LastBuild: 1, LastResult: "UNSTABLE"},
			Builds: []ci.BuildJSON{
				{Job: "environments/sol", Number: 1, CellBuilds: []int{2, 3}, Result: "UNSTABLE", EndedAtSec: 12.5},
				{Job: "environments/sol", Number: 2, Parent: 1, Cell: map[string]string{"image": "jessie-x64-min"}, Result: "SUCCESS",
					Log: []string{`deploying "jessie" & rebooting`, ""}, BugSignatures: []string{}},
			},
		},
		"nil": nil, "empty struct": struct{}{}, "scalar": 1.5, "string": "a<b",
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		vals[fmt.Sprintf("random %d", i)] = randomValue(rng, 5)
	}
	return vals
}

// TestMarshalAndWriteMatchEncodingJSON is the differential the switch rests
// on: both entry points equal their encoding/json counterparts, trailing
// newline included, on real wire types and random values.
func TestMarshalAndWriteMatchEncodingJSON(t *testing.T) {
	for name, v := range wireValues() {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := wire.MarshalIndent(v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: MarshalIndent (err %v)\n got %q\nwant %q", name, err, got, want)
		}

		var wantW bytes.Buffer
		enc := json.NewEncoder(&wantW)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec := httptest.NewRecorder()
		if err := wire.WriteIndent(rec, http.StatusAccepted, v); err != nil || !bytes.Equal(rec.Body.Bytes(), wantW.Bytes()) {
			t.Fatalf("%s: WriteIndent (err %v)\n got %q\nwant %q", name, err, rec.Body.Bytes(), wantW.Bytes())
		}
		if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: WriteIndent sent %d %q", name, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
}

// TestUnencodableValueSendsNothing pins the contract handlers rely on to
// answer 500: the error — encoding/json's own — comes back with the response
// untouched: no header set, no status line, no byte.
func TestUnencodableValueSendsNothing(t *testing.T) {
	v := map[string]float64{"x": math.NaN()}
	_, wantErr := json.Marshal(v)
	rec := httptest.NewRecorder()
	err := wire.WriteIndent(rec, http.StatusCreated, v)
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("WriteIndent = %v, want %v", err, wantErr)
	}
	if rec.Body.Len() != 0 || len(rec.Header()) != 0 || rec.Code != http.StatusOK { // the recorder's untouched default
		t.Fatalf("WriteIndent touched the response: %d %v %q", rec.Code, rec.Header(), rec.Body)
	}
	if b, err := wire.MarshalIndent(v); err == nil || b != nil {
		t.Fatalf("MarshalIndent = %q, %v, want an error", b, err)
	}
	// The scratch the failed call returned to the pool serves the next one.
	if b, err := wire.MarshalIndent([]int{1}); err != nil || string(b) != "[\n  1\n]" {
		t.Fatalf("after a failed encode: %q, %v", b, err)
	}
}

// snapshotCompact is the compact encoding of a real materialized snapshot:
// the paper-scale testbed's full description, the body /ref/inventory and
// /grid/at are made of.
func snapshotCompact(b *testing.B) []byte {
	b.Helper()
	st := refapi.NewStore(testbed.Default(), 0)
	src, err := json.Marshal(st.Version(1))
	if err != nil {
		b.Fatal(err)
	}
	return src
}

var sink []byte

// BenchmarkAppendIndent is the render layer's own figure: the single-pass
// indenter on a materialized snapshot.
func BenchmarkAppendIndent(b *testing.B) {
	src := snapshotCompact(b)
	dst := make([]byte, 0, 2*len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = wire.AppendIndent(dst[:0], src)
	}
}

// BenchmarkStdIndent is the reference beside it: encoding/json's indenter
// on the same bytes into a buffer as warm.
func BenchmarkStdIndent(b *testing.B) {
	src := snapshotCompact(b)
	var buf bytes.Buffer
	buf.Grow(2 * len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := json.Indent(&buf, src, "", "  "); err != nil {
			b.Fatal(err)
		}
	}
	sink = buf.Bytes()
}
