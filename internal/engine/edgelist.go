package engine

import (
	"bytes"
	"encoding/json"
)

// EdgeList is an inline graph's edge list: EdgeList[i] = [u, v, w].
// Under encoding/json it behaves exactly like [][3]int64: it accepts
// the same inputs, decodes each to the same value and encodes to the
// same bytes. Only decoding is specialized (see UnmarshalJSON);
// encoding is encoding/json's own, so canonical spec JSON and spec
// hashes do not depend on this type.
type EdgeList [][3]int64

// UnmarshalJSON parses the common shape, an array of integer triples,
// without reflection: JSON whitespace between tokens, integers in
// int64 range, no fraction or exponent. Any other input (null, short
// or long tuples, floats, strings, out-of-range numbers, malformed
// JSON) goes to encoding/json's reflective decoder for [][3]int64,
// which stays the reference for what is accepted and what it decodes
// to.
func (l *EdgeList) UnmarshalJSON(data []byte) error {
	if edges, ok := parseTriples(data); ok {
		*l = edges
		return nil
	}
	return json.Unmarshal(data, (*[][3]int64)(l))
}

// parseTriples parses data as a JSON array of integer triples and
// reports whether it had exactly that shape. The result is allocated
// at its final length.
func parseTriples(data []byte) (EdgeList, bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '[' {
		return nil, false
	}
	// Every triple closes with one ']' and the list with one more. A
	// triple takes at least 8 bytes ("[0,0,0],"), which caps the size
	// hint for input that is not a triple list, such as a string full
	// of ']'.
	n := min(bytes.Count(data, []byte{']'})-1, len(data)/8)
	edges := make(EdgeList, 0, max(0, n))
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return edges, skipSpace(data, i+1) == len(data)
	}
	for {
		if i == len(data) || data[i] != '[' {
			return nil, false
		}
		var e [3]int64
		for k := range e {
			var ok bool
			if e[k], i, ok = parseInt(data, skipSpace(data, i+1)); !ok {
				return nil, false
			}
			i = skipSpace(data, i)
			sep := byte(',')
			if k == len(e)-1 {
				sep = ']'
			}
			if i == len(data) || data[i] != sep {
				return nil, false
			}
		}
		edges = append(edges, e)
		i = skipSpace(data, i+1)
		if i == len(data) {
			return nil, false
		}
		if data[i] == ']' {
			return edges, skipSpace(data, i+1) == len(data)
		}
		if data[i] != ',' {
			return nil, false
		}
		i = skipSpace(data, i+1)
	}
}

// parseInt parses a JSON integer, -?(0|[1-9][0-9]*), in int64 range at
// data[i:] and returns it with the index just past it. A fraction or
// exponent is left unread, so the caller's separator check refuses it.
func parseInt(data []byte, i int) (int64, int, bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		u = u*10 + uint64(data[i]-'0')
		i++
	}
	// 19 digits cannot overflow the uint64 accumulator; int64 values
	// need at most 19, so a longer run is out of range (or has leading
	// zeros) and goes to the reference decoder.
	digits := i - start
	if digits == 0 || digits > 19 || (data[start] == '0' && digits > 1) {
		return 0, 0, false
	}
	if neg {
		if u > 1<<63 {
			return 0, 0, false
		}
		return int64(-u), i, true
	}
	if u > 1<<63-1 {
		return 0, 0, false
	}
	return int64(u), i, true
}

// skipSpace returns the index of the first non-whitespace byte of
// data at or after i (len(data) if there is none).
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}
