// Package wire renders the JSON bodies the testbed's services put on the
// wire — the format users script against: HTML-escaped and indented by two
// spaces with no prefix, byte for byte what encoding/json's MarshalIndent and
// its Encoder after SetIndent produce with those settings — indenting in one
// pass over the compact encoding instead of a second walk through
// encoding/json's scanner.
package wire

import (
	"bytes"
	"encoding/json"
	"net/http"
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
	src, tail := src[:end], src[end:]
	depth := 0
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
			dst = append(dst, src[i:j]...)
		default: // a number, true, false or null
			for j < len(src) && !isSpace(src[j]) && src[j] != ',' && src[j] != '}' && src[j] != ']' {
				j++
			}
			dst = append(dst, src[i:j]...)
		}
		i = j
	}
	return append(dst, tail...)
}

// scratch is one call's working memory: the compact encoding and, for
// WriteIndent, the indented bytes on their way out.
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
	s, err := encode(v)
	if err != nil {
		return nil, err
	}
	defer pool.Put(s)
	src := s.compact.Bytes()[:s.compact.Len()-1] // Marshal ends without the Encoder's newline
	return AppendIndent(make([]byte, 0, 2*len(src)), src), nil
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
