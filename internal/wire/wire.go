// Package wire renders the JSON bodies the testbed's services put on the
// wire — the format users script against: HTML-escaped and indented by two
// spaces with no prefix, byte for byte what encoding/json's MarshalIndent and
// its Encoder after SetIndent produce with those settings — indenting in one
// pass over the compact encoding instead of a second walk through
// encoding/json's scanner.
//
// A body may also splice in Fragments: values that keep their own indented
// form, rendered once, and append it shifted to the depth it lands at. A
// Splice's Slot stands in for one in the value encoding/json encodes, and
// the indenter fills the slot where it reaches it. The Reference API's
// archived snapshots are rendered this way, from one cached fragment per
// node description.
package wire

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// AppendIndent appends to dst the indented form of the JSON text src: what
// encoding/json's Indent writes (no prefix, two spaces) for every src that
// json.Valid accepts, compact or not, trailing space preserved. Strings and scalars are copied
// as runs. src is not validated: an invalid one yields unspecified bytes,
// never a panic.
func AppendIndent(dst, src []byte) []byte {
	end := len(src)
	for end > 0 && isSpace(src[end-1]) {
		end--
	}
	return append(indent(dst, src[:end], 0, nil), src[end:]...)
}

// indent is AppendIndent without the trailing space, for a value that starts
// at depth, filling the slots a Splice marked with their fragments.
func indent(dst, src []byte, depth int, slots []Fragment) []byte {
	opened := false // the last token was { or [: indent unless it closes at once
	for i := 0; i < len(src); {
		c := src[i]
		j := i + 1
		if isSpace(c) {
			i = j
			continue
		}
		if opened && c != '}' && c != ']' {
			opened = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '{', '[':
			opened = true
			dst = append(dst, c)
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		case '}', ']':
			if !opened {
				depth--
				dst = appendNewline(dst, depth)
			}
			opened = false
			dst = append(dst, c)
		case '"':
			for ; j < len(src) && src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++
				}
			}
			j = min(j+1, len(src))
			if f := slot(src[i:j], slots); f != nil {
				dst = f.AppendIndent(dst, depth)
			} else {
				dst = append(dst, src[i:j]...)
			}
		default: // a number, true, false or null
			for j < len(src) && !isSpace(src[j]) && src[j] != ',' && src[j] != '}' && src[j] != ']' {
				j++
			}
			dst = append(dst, src[i:j]...)
		}
		i = j
	}
	return dst
}

// AppendShifted appends frag, an indented body rendered at depth 0, as it
// reads at depth: two more spaces per level after each of its newlines. A
// newline inside an indented body is always indentation: strings carry
// theirs escaped.
func AppendShifted(dst, frag []byte, depth int) []byte {
	for {
		i := bytes.IndexByte(frag, '\n')
		if i < 0 {
			return append(dst, frag...)
		}
		dst = appendNewline(append(dst, frag[:i]...), depth)
		frag = frag[i+1:]
	}
}

// AppendString appends s as encoding/json encodes it. Strings of printable
// ASCII that needs no escape, which node names and the like are, are quoted
// in place; any other goes through encoding/json.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// A Fragment is a value that renders its own indented form: what the
// indenter writes for its encoding when it starts at depth (its first line
// already placed, its inner lines one level deeper, its closing bracket at
// depth).
type Fragment interface {
	AppendIndent(dst []byte, depth int) []byte
}

// A Splice renders one body whose value holds Slots: each slot reads as
// the indented form of the Fragment it stands in for. The zero value has no
// slots.
type Splice struct {
	frags []Fragment
}

// Slot stands in for one Fragment of a Splice in the value its MarshalIndent
// renders. The zero Slot encodes as null.
type Slot struct {
	n int // 1 + the fragment's index; 0 names none
}

// slotMark opens a slot's encoding. encoding/json writes no invalid UTF-8
// — it escapes the bytes as \ufffd — so no string it encodes begins with
// 0xff, and the indenter can tell a slot from any other string.
const slotMark = "\"\xff"

// MarshalJSON encodes the slot as a string the indenter recognises.
func (s Slot) MarshalJSON() ([]byte, error) {
	if s.n == 0 {
		return []byte("null"), nil
	}
	return append(strconv.AppendInt([]byte(slotMark), int64(s.n), 10), '"'), nil
}

// Slot returns the stand-in for f.
func (sp *Splice) Slot(f Fragment) Slot {
	sp.frags = append(sp.frags, f)
	return Slot{n: len(sp.frags)}
}

// slot returns the fragment the string token tok stands in for, or nil.
func slot(tok []byte, slots []Fragment) Fragment {
	if len(slots) == 0 || len(tok) < len(slotMark)+2 || string(tok[:len(slotMark)]) != slotMark {
		return nil
	}
	n, err := strconv.Atoi(string(tok[len(slotMark) : len(tok)-1]))
	if err != nil || n < 1 || n > len(slots) {
		return nil
	}
	return slots[n-1]
}

// scratch is one call's working memory: the compact encoding and the
// indented bytes on their way out.
type scratch struct {
	compact bytes.Buffer
	out     []byte
}

var pool = sync.Pool{New: func() any { return new(scratch) }}

// encode returns a pooled scratch holding v's compact, newline-terminated
// encoding; the caller puts it back.
func encode(v any) (*scratch, error) {
	s := pool.Get().(*scratch)
	s.compact.Reset()
	if err := json.NewEncoder(&s.compact).Encode(v); err != nil {
		pool.Put(s)
		return nil, err
	}
	return s, nil
}

// MarshalIndent returns what encoding/json's MarshalIndent returns for v (no
// prefix, two spaces).
func MarshalIndent(v any) ([]byte, error) {
	return (&Splice{}).MarshalIndent(v)
}

// MarshalIndent returns what the package's MarshalIndent returns for v, with
// each of the splice's slots replaced by its fragment's indented form.
func (sp *Splice) MarshalIndent(v any) ([]byte, error) {
	s, err := encode(v)
	if err != nil {
		return nil, err
	}
	defer pool.Put(s)
	src := s.compact.Bytes()[:s.compact.Len()-1] // Marshal ends without the Encoder's newline
	// Fragments grow the body as they go: build it in the pooled scratch,
	// whose capacity outlives the call, and hand out an exact-size copy.
	s.out = indent(s.out[:0], src, 0, sp.frags)
	return bytes.Clone(s.out), nil
}

// WriteIndent answers a request with status code and v as the JSON body: the
// bytes an indenting json.Encoder (no prefix, two spaces) writes for
// Encode(v), final newline included. v is rendered before anything is sent, so when it does
// not encode the error comes back with w untouched and the handler can still
// answer 500. A failed write is a closed client and is not reported.
func WriteIndent(w http.ResponseWriter, code int, v any) error {
	s, err := encode(v)
	if err != nil {
		return err
	}
	defer pool.Put(s)
	s.out = AppendIndent(s.out[:0], s.compact.Bytes())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(s.out) //nolint:errcheck // best effort on a closed client
	return nil
}
