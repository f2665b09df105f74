package jobstore

import "encoding/json"

// appendRecord appends r's JSON encoding to dst: the bytes
// json.Marshal(r) returns, HTML escaping included, or its error when
// Spec or Result is not JSON. json.Marshal runs encoding/json's
// compactor over every json.RawMessage, which on a submitted record
// means re-scanning the whole inline spec; appendRecord copies Spec and
// Result unchanged whenever the compactor would, which holds for every
// spec and result the engine logs, and hands anything else to
// json.Marshal.
func appendRecord(dst []byte, r Record) ([]byte, error) {
	dst = append(dst, `{"op":`...)
	dst = appendString(dst, string(r.Op))
	dst = append(dst, `,"id":`...)
	dst = appendString(dst, r.ID)
	if r.Hash != "" {
		dst = append(dst, `,"hash":`...)
		dst = appendString(dst, r.Hash)
	}
	var err error
	if len(r.Spec) > 0 {
		dst = append(dst, `,"spec":`...)
		if dst, err = appendRaw(dst, r.Spec); err != nil {
			return nil, err
		}
	}
	if len(r.Result) > 0 {
		dst = append(dst, `,"result":`...)
		if dst, err = appendRaw(dst, r.Result); err != nil {
			return nil, err
		}
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, r.Error)
	}
	return append(dst, '}'), nil
}

// appendString appends s as json.Marshal writes a string: printable
// ASCII that needs no escape is quoted as it is, anything else is left
// to json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendRaw appends raw as json.Marshal writes a json.RawMessage field.
func appendRaw(dst []byte, raw json.RawMessage) ([]byte, error) {
	if end, ok := skipValue(raw, 0, 0); ok && end == len(raw) {
		return append(dst, raw...), nil
	}
	b, err := json.Marshal(raw)
	if err != nil {
		return nil, err
	}
	return append(dst, b...), nil
}

// maxSkipDepth is encoding/json's nesting limit: a deeper value is
// left to json.Marshal, which rejects it.
const maxSkipDepth = 10000

// skipValue reads the JSON value starting at b[i] and returns the index
// after it. ok is false unless the value is valid JSON that
// encoding/json's compactor copies unchanged: no whitespace between
// tokens, and no <, >, & or U+2028/U+2029, which json.Marshal escapes
// for HTML. depth counts the arrays and objects around b[i].
func skipValue(b []byte, i, depth int) (end int, ok bool) {
	if i >= len(b) {
		return i, false
	}
	switch b[i] {
	case '{', '[':
		if depth == maxSkipDepth {
			return i, false
		}
		object, closer := b[i] == '{', b[i]+2 // '}' and ']' follow their openers by 2
		i++
		if i < len(b) && b[i] == closer {
			return i + 1, true
		}
		for {
			if object {
				if i >= len(b) || b[i] != '"' {
					return i, false
				}
				if i, ok = skipString(b, i); !ok || i >= len(b) || b[i] != ':' {
					return i, false
				}
				i++
			}
			if i, ok = skipValue(b, i, depth+1); !ok || i >= len(b) {
				return i, false
			}
			switch b[i] {
			case ',':
				i++
			case closer:
				return i + 1, true
			default:
				return i, false
			}
		}
	case '"':
		return skipString(b, i)
	case 't':
		return skipLiteral(b, i, "true")
	case 'f':
		return skipLiteral(b, i, "false")
	case 'n':
		return skipLiteral(b, i, "null")
	default:
		return skipNumber(b, i)
	}
}

// skipString reads the string whose opening quote is b[i].
func skipString(b []byte, i int) (int, bool) {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c == '\\':
			i++
			if i >= len(b) {
				return i, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 {
					return i, false
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return i, false
					}
				}
				i += 4
			default:
				return i, false
			}
		case c < 0x20, c == '<', c == '>', c == '&':
			return i, false
		case c == 0xE2 && i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8:
			return i, false // U+2028 or U+2029
		}
	}
	return i, false
}

// skipLiteral reads lit (true, false or null) at b[i].
func skipLiteral(b []byte, i int, lit string) (int, bool) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}

// skipNumber reads the number starting at b[i].
func skipNumber(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return j, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return j, false
		}
		i = j
	}
	return i, true
}

// skipDigits returns the index of the first non-digit at or after b[i].
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
