package engine

import (
	"bytes"
	"encoding/json"
	"unicode/utf8"
)

// EdgeList is an inline graph's edge list: EdgeList[i] = [u, v, w].
// Under encoding/json it behaves exactly like [][3]int64: it accepts
// the same inputs, decodes each to the same value and encodes to the
// same bytes. Decoding is specialized (see UnmarshalJSON); encoding is
// encoding/json's own, and MarshalSpec reproduces its bytes, so
// canonical spec JSON and spec hashes do not depend on this type.
type EdgeList [][3]int64

// MarshalSpec returns exactly what json.Marshal(spec) returns, bytes
// and error, in less time when the spec carries inline edges:
// encoding/json writes every other field, and the edge list, the last
// field of the graph object, is formatted straight into its place in
// an output allocated once at its exact length. The result's capacity
// is its length, as callers keep it (the router for failover, the
// ledger in its mirror). It is a function rather than a MarshalJSON
// method because encoding/json re-compacts a Marshaler's output, which
// costs more than the reflection it saves.
func MarshalSpec(spec JobSpec) ([]byte, error) {
	edges := spec.Graph.Edges
	spec.Graph.Edges = nil
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if len(edges) == 0 {
		return append(make([]byte, 0, len(body)), body...), nil
	}
	graphJSON, err := json.Marshal(spec.Graph)
	if err != nil {
		return nil, err
	}
	// body is {"graph":<graphJSON>,...}: the edges go in front of the
	// graph object's closing brace, after a comma if it has fields.
	cut := len(`{"graph":`) + len(graphJSON) - 1
	key := `,"edges":[`
	if len(graphJSON) == len("{}") {
		key = key[1:]
	}
	size := len(body) + len(key) + len("]") + len(edges) - 1
	for _, e := range edges {
		size += len("[,,]") + decimalLen(e[0]) + decimalLen(e[1]) + decimalLen(e[2])
	}
	out := make([]byte, size)
	copy(out, body[:cut])
	copy(out[cut:], key)
	// Fill the list back to front, each number from its last digit.
	p := size - copy(out[size-len(body)+cut:], body[cut:]) - 1
	out[p] = ']'
	for k := len(edges) - 1; k >= 0; k-- {
		e := edges[k]
		p--
		out[p] = ']'
		p = putInt(out, p, e[2]) - 1
		out[p] = ','
		p = putInt(out, p, e[1]) - 1
		out[p] = ','
		p = putInt(out, p, e[0]) - 1
		out[p] = '['
		if k > 0 {
			p--
			out[p] = ','
		}
	}
	return out, nil
}

// decimalLen returns the length of x in base 10, sign included.
func decimalLen(x int64) int {
	n, u := 1, uint64(x)
	if x < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// putInt writes x in base 10 to end just before out[p] and returns the
// index of its first byte.
func putInt(out []byte, p int, x int64) int {
	u := uint64(x)
	if x < 0 {
		u = -u
	}
	for {
		p--
		out[p] = byte('0' + u%10)
		if u /= 10; u == 0 {
			break
		}
	}
	if x < 0 {
		p--
		out[p] = '-'
	}
	return p
}

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

// DecodeSpec decodes a job spec the way mapd and the router accept
// one: it returns exactly what json.NewDecoder with
// DisallowUnknownFields and one Decode returns for body, the same spec
// or an error with the same text, in one pass over the edges. When the
// top-level object has exactly one key matching "graph" and that
// object exactly one key matching "edges" (both spelled so), and the
// edges are an array of integer triples, the triples are parsed in
// place and encoding/json decodes the rest of the document with the
// list replaced by []. Any other shape (case variants, escaped or
// non-ASCII keys, duplicate keys, any other edge list) and any error
// goes to the reference decoder on body itself.
func DecodeSpec(body []byte) (JobSpec, error) {
	if start, end, edges, ok := locateEdges(body); ok {
		rest := make([]byte, 0, len(body)-(end-start)+len("[]"))
		rest = append(append(append(rest, body[:start]...), "[]"...), body[end:]...)
		if spec, err := decodeSpecJSON(rest); err == nil {
			spec.Graph.Edges = edges
			return spec, nil
		}
	}
	return decodeSpecJSON(body)
}

// decodeSpecJSON is DecodeSpec's reference: encoding/json's decoder,
// refusing fields outside the schema and ignoring bytes after the
// first value.
func decodeSpecJSON(body []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// locateEdges finds the inline edge list DecodeSpec can parse in
// place: it returns the list and the bounds of its text in data, or
// ok false for any other shape. It reads the keys of the top-level
// object and of its graph object, and skips every other value.
//
// Replacing the list's text by [] keeps the document valid or invalid
// alike, and its spec the same but for the edges, as long as the list
// is the value encoding/json decodes into GraphSpec.Edges. The walk
// finds it only there: it reads keys and separators as encoding/json
// does, and every value it skips before the list is valid JSON, or
// encoding/json refuses the same prefix in both documents.
func locateEdges(data []byte) (start, end int, edges EdgeList, ok bool) {
	graphs, lists := 0, 0
	_, ok = walkObject(data, skipSpace(data, 0), func(key []byte, v int) (int, bool) {
		if !bytes.EqualFold(key, []byte("graph")) {
			return skipValue(data, v)
		}
		if graphs++; graphs > 1 || string(key) != "graph" {
			return 0, false
		}
		return walkObject(data, v, func(key []byte, v int) (int, bool) {
			if !bytes.EqualFold(key, []byte("edges")) {
				return skipValue(data, v)
			}
			if lists++; lists > 1 || string(key) != "edges" {
				return 0, false
			}
			var ok bool
			start = v
			edges, end, ok = parseTriplesAt(data, v)
			return end, ok
		})
	})
	return start, end, edges, ok && lists == 1
}

// walkObject walks the JSON object opening at data[i]: for each member
// it calls member with the key and the index of the value, and member
// returns the index just past that value. walkObject returns the index
// just past the closing brace. ok is false if the walk finds the object
// malformed or a key that is not plain ASCII without escapes:
// encoding/json matches such keys to fields by unescaping and Unicode
// case folding, which the walk does not reproduce.
func walkObject(data []byte, i int, member func(key []byte, v int) (int, bool)) (int, bool) {
	if i == len(data) || data[i] != '{' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return i + 1, true
	}
	for {
		if i == len(data) || data[i] != '"' {
			return 0, false
		}
		k := i + 1
		for k < len(data) && data[k] != '"' {
			if c := data[k]; c == '\\' || c < ' ' || c >= utf8.RuneSelf {
				return 0, false
			}
			k++
		}
		if k == len(data) {
			return 0, false
		}
		key := data[i+1 : k]
		i = skipSpace(data, k+1)
		if i == len(data) || data[i] != ':' {
			return 0, false
		}
		var ok bool
		if i, ok = member(key, skipSpace(data, i+1)); !ok {
			return 0, false
		}
		i = skipSpace(data, i)
		switch {
		case i == len(data):
			return 0, false
		case data[i] == '}':
			return i + 1, true
		case data[i] != ',':
			return 0, false
		}
		i = skipSpace(data, i+1)
	}
}

// skipValue returns the index just past the JSON value at data[i]. It
// is exact for valid JSON and need not be for anything else.
func skipValue(data []byte, i int) (int, bool) {
	depth := 0
	for i < len(data) {
		switch c := data[i]; c {
		case '"':
			// A backslash escapes the byte after it.
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
			if i >= len(data) {
				return 0, false
			}
			i++
		case '{', '[':
			depth++
			i++
			continue
		case '}', ']':
			if depth == 0 {
				return i, true
			}
			depth--
			i++
		case ',', ':', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i, true
			}
			i++
			continue
		default:
			i++
			continue
		}
		if depth == 0 {
			return i, true
		}
	}
	return 0, false
}

// parseTriples parses data as a JSON array of integer triples and
// reports whether it had exactly that shape.
func parseTriples(data []byte) (EdgeList, bool) {
	edges, end, ok := parseTriplesAt(data, skipSpace(data, 0))
	return edges, ok && skipSpace(data, end) == len(data)
}

// parseTriplesAt parses the JSON array of integer triples that opens
// at data[i] and returns it with the index just past its closing
// bracket; ok is false unless such an array starts there. The result
// is allocated at its final length when no ']' follows the array.
func parseTriplesAt(data []byte, i int) (edges EdgeList, end int, ok bool) {
	if i == len(data) || data[i] != '[' {
		return nil, 0, false
	}
	// Every triple closes with one ']' and the list with one more. A
	// triple takes at least 8 bytes ("[0,0,0],"), which caps the size
	// hint for input that is not a triple list, such as a string full
	// of ']'.
	n := min(bytes.Count(data[i:], []byte{']'})-1, (len(data)-i)/8)
	edges = make(EdgeList, 0, max(0, n))
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return edges, i + 1, true
	}
	for {
		if i == len(data) || data[i] != '[' {
			return nil, 0, false
		}
		var e [3]int64
		for k := range e {
			var ok bool
			if e[k], i, ok = parseInt(data, skipSpace(data, i+1)); !ok {
				return nil, 0, false
			}
			i = skipSpace(data, i)
			sep := byte(',')
			if k == len(e)-1 {
				sep = ']'
			}
			if i == len(data) || data[i] != sep {
				return nil, 0, false
			}
		}
		edges = append(edges, e)
		i = skipSpace(data, i+1)
		if i == len(data) {
			return nil, 0, false
		}
		if data[i] == ']' {
			return edges, i + 1, true
		}
		if data[i] != ',' {
			return nil, 0, false
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
