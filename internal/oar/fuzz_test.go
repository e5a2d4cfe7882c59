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

// FuzzSchedulerMatchesScan is TestSchedulerMatchesScanReference with the
// fuzzer's bytes in place of the seeded RNG: each byte picks an operation,
// an argument of one, or a probe, and check runs after every operation —
// allocation and availability against the scanning reference, the dense
// state against a recount, the queue settled, every job's history against
// the job.
// The seeds are the corpus under testdata/fuzz/FuzzSchedulerMatchesScan.
func FuzzSchedulerMatchesScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		src := &byteSource{b: ops}
		d := newDiffDriver(t, 1)
		d.rng = src
		for d.op = 0; len(src.b) > 0 && d.op < fuzzOps; d.op++ {
			d.step()
			d.check()
		}
	})
}

// fuzzOps bounds one input's history to the length of a seeded one: the
// checks cost more as it grows.
const fuzzOps = 300

// byteSource is an Intn that reads one byte a draw; once they run out
// every draw is 0.
type byteSource struct{ b []byte }

func (s *byteSource) Intn(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0])
	s.b = s.b[1:]
	return v % n
}
