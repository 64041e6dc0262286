// Package jsonscan is a small JSON scanner for the canonical subset of
// JSON the serving path decodes without reflection. The subset is:
//
//   - strings of printable ASCII without escapes (0x20–0x7E, no '"' or
//     '\');
//   - numbers in JSON grammar, parsed with the same strconv calls
//     encoding/json makes; integers without a fraction or exponent;
//   - objects and arrays, with JSON whitespace between tokens.
//
// Anything else — null, booleans, escapes, non-ASCII, a number
// strconv rejects, a syntax error — makes the scanner fail. A failed
// scanner stays failed and every later call returns a zero value, so
// a decoder can run to its end and check OK once. Decoders built on it
// decline on failure and let encoding/json decode the same input, so
// every error, and every value outside the subset, is encoding/json's
// own.
package jsonscan

import "strconv"

// Scanner reads tokens from a JSON text. The zero value is a failed
// scanner over nothing; start with New.
type Scanner struct {
	src string
	pos int
	bad bool
}

// New returns a scanner positioned at the start of src. Strings it
// returns are substrings of src: decoding a document costs one string
// conversion however many strings it holds.
func New(src string) Scanner { return Scanner{src: src} }

// OK reports whether every token so far was in the canonical subset.
func (s *Scanner) OK() bool { return !s.bad }

// Fail marks the input as outside the subset (a decoder's own check,
// such as a duplicate or unknown key).
func (s *Scanner) Fail() { s.bad = true }

// Once records the object key with bit in *seen, failing when it was
// already there: encoding/json merges a repeated key into the first
// one's value, which a one-pass decoder does not reproduce.
func (s *Scanner) Once(seen *uint8, bit uint8) {
	if *seen&bit != 0 {
		s.bad = true
	}
	*seen |= bit
}

// Pos returns the offset of the next unread byte.
func (s *Scanner) Pos() int { return s.pos }

// Rest returns the unread input.
func (s *Scanner) Rest() string { return s.src[s.pos:] }

// Advance skips n bytes that a nested decoder consumed from Rest.
func (s *Scanner) Advance(n int) { s.pos += n }

func (s *Scanner) skipSpace() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// Expect consumes c as the next non-whitespace byte, or fails.
func (s *Scanner) Expect(c byte) bool {
	if s.bad {
		return false
	}
	s.skipSpace()
	if s.pos < len(s.src) && s.src[s.pos] == c {
		s.pos++
		return true
	}
	s.bad = true
	return false
}

// More reports whether another member or element follows inside the
// object or array that close ends. first is true right after the
// opening byte. More consumes the separating comma, or the closing
// byte when it returns false.
func (s *Scanner) More(close byte, first bool) bool {
	if s.bad {
		return false
	}
	s.skipSpace()
	if s.pos >= len(s.src) {
		s.bad = true
		return false
	}
	c := s.src[s.pos]
	if c == close {
		s.pos++
		return false
	}
	if !first {
		if c != ',' {
			s.bad = true
			return false
		}
		s.pos++
	}
	return true
}

// Str consumes a string and returns its contents.
func (s *Scanner) Str() string {
	if !s.Expect('"') {
		return ""
	}
	start := s.pos
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		if c == '"' {
			v := s.src[start:s.pos]
			s.pos++
			return v
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			break
		}
		s.pos++
	}
	s.bad = true
	return ""
}

// Key consumes an object key and the colon after it.
func (s *Scanner) Key() string {
	k := s.Str()
	s.Expect(':')
	return k
}

// number consumes a number token in JSON grammar: a sign, an integer
// part without leading zeros and, unless integer is set, an optional
// fraction and exponent.
func (s *Scanner) number(integer bool) string {
	if s.bad {
		return ""
	}
	s.skipSpace()
	src, i := s.src, s.pos
	start := i
	if i < len(src) && src[i] == '-' {
		i++
	}
	switch {
	case i < len(src) && src[i] == '0':
		i++
	case i < len(src) && src[i] >= '1' && src[i] <= '9':
		i = digits(src, i)
	default:
		s.bad = true
		return ""
	}
	if !integer {
		if i < len(src) && src[i] == '.' {
			if j := digits(src, i+1); j > i+1 {
				i = j
			} else {
				s.bad = true
				return ""
			}
		}
		if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
			i++
			if i < len(src) && (src[i] == '+' || src[i] == '-') {
				i++
			}
			if j := digits(src, i); j > i {
				i = j
			} else {
				s.bad = true
				return ""
			}
		}
	}
	s.pos = i
	return src[start:i]
}

func digits(src string, i int) int {
	for i < len(src) && src[i] >= '0' && src[i] <= '9' {
		i++
	}
	return i
}

// Float consumes a number into a float64 as encoding/json does
// (strconv.ParseFloat; a range error fails).
func (s *Scanner) Float() float64 {
	tok := s.number(false)
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		s.bad = true
		return 0
	}
	return f
}

// Int64 consumes an integer into an int64 as encoding/json does
// (strconv.ParseInt, base 10).
func (s *Scanner) Int64() int64 {
	tok := s.number(true)
	if s.bad {
		return 0
	}
	n, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		s.bad = true
		return 0
	}
	return n
}

// Int consumes an integer that fits an int.
func (s *Scanner) Int() int {
	n := s.Int64()
	if int64(int(n)) != n {
		s.bad = true
		return 0
	}
	return int(n)
}

// End reports whether the input was in the subset and only whitespace
// follows the last token.
func (s *Scanner) End() bool {
	s.skipSpace()
	return !s.bad && s.pos == len(s.src)
}
