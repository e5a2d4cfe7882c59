package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// rawFragment is a JSON text's indented form as a Fragment: rendered once
// at depth 0, and shifted to the depth the indenter reaches it at.
type rawFragment []byte

func (f rawFragment) AppendIndent(dst []byte, depth int) []byte { return AppendShifted(dst, f, depth) }

// FuzzSplice holds the splice to the indenter: for any valid JSON value v,
// an envelope whose slots stand for v at depth d (and at depth 1 beside it)
// renders as AppendIndent of the envelope's encoding with v's text inline.
func FuzzSplice(f *testing.F) {
	for _, seed := range []struct {
		v     string
		depth uint8
	}{
		{`{}`, 0}, {`[]`, 1}, {`null`, 2}, {`"<&>"`, 3}, {` {"a" : [1, {"b":[]}, "x\n"] } `, 4},
		{`[[[[]]]]`, 9}, {`-1.5e300`, 5}, {`{"":{"":{}}}`, 17},
	} {
		f.Add([]byte(seed.v), seed.depth)
	}
	f.Fuzz(func(t *testing.T, v []byte, depth uint8) {
		if !json.Valid(v) {
			return
		}
		frag := rawFragment(AppendIndent(nil, bytes.TrimSpace(v)))
		var sp Splice
		var env any = sp.Slot(frag)
		for d := int(depth % 24); d > 0; d-- {
			if d%2 == 0 {
				env = []any{d, env}
			} else {
				env = map[string]any{"in": env, "<z>": nil}
			}
		}
		env = []any{sp.Slot(frag), env, Slot{}}
		got, err := sp.MarshalIndent(env)
		if err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		var inline []byte // compact, each slot's string replaced by v
		for {
			i := bytes.Index(compact, []byte(slotMark))
			if i < 0 {
				break
			}
			inline = append(append(inline, compact[:i]...), v...)
			compact = compact[i+len(slotMark):]
			compact = compact[bytes.IndexByte(compact, '"')+1:]
		}
		if want := AppendIndent(nil, append(inline, compact...)); !bytes.Equal(got, want) {
			t.Fatalf("v %q at depth %d\n got %q\nwant %q", v, depth%24, got, want)
		}
	})
}
