package oar

import (
	"reflect"
	"testing"
)

// FuzzParseRequest holds ParseRequest to two things on whatever text the
// fuzzer finds: it never panics, and a request it accepts prints (String)
// to text that parses back to the same request — expressions, node counts,
// anchors and walltime. ClusterRequest leans on the second: it is held equal
// to ParseRequest of what it prints. The seeds are the corpus checked in
// under testdata/fuzz/FuzzParseRequest, which a plain `go test` runs too.
func FuzzParseRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRequest(s)
		if err != nil {
			return
		}
		if r.Walltime <= 0 || len(r.Segments) == 0 {
			t.Fatalf("ParseRequest(%q) accepted %+v", s, r)
		}
		again, err := ParseRequest(r.String())
		if err != nil {
			t.Fatalf("ParseRequest(%q) prints %q, which does not parse: %v", s, r.String(), err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("ParseRequest(%q) = %#v\nprints %q, which parses to %#v", s, r, r.String(), again)
		}
	})
}
