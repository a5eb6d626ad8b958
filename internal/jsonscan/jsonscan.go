// Package jsonscan reads the JSON layouts encoding/json writes for the
// repository's own types, without reflection. A Scanner takes only a
// narrow canonical subset: fields in declaration order, each at most
// once and under its exact name; strings of printable ASCII without
// escapes; integers in plain decimal; numbers in JSON's grammar; JSON
// whitespace anywhere between tokens. On anything else it stops and
// reports a miss rather than an error, and the caller hands the bytes
// to encoding/json, which decides every input the scanner does not
// take. Whatever the scanner takes, it decodes to exactly the values
// encoding/json would.
package jsonscan

import (
	"math"
	"strconv"
	"time"
)

// Scanner walks one JSON document. A miss is sticky: after the first
// input the scanner does not take, every method returns a zero value
// without reading, and OK reports false.
type Scanner struct {
	data []byte
	pos  int
	miss bool
}

// New returns a scanner at the start of data.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// OK reports whether the scanner took everything it was asked to read.
func (s *Scanner) OK() bool { return !s.miss }

func (s *Scanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// next consumes c if it is the next token and reports whether it was.
func (s *Scanner) next(c byte) bool {
	if s.miss {
		return false
	}
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// Expect consumes the punctuation c ('{', '}', ...) or misses.
func (s *Scanner) Expect(c byte) {
	if !s.next(c) {
		s.miss = true
	}
}

// nextKey consumes `"name":` if it comes next and reports whether it
// did; any other key is left unread.
func (s *Scanner) nextKey(name string) bool {
	if s.miss {
		return false
	}
	s.skipSpace()
	end := s.pos + len(name) + 2
	if end > len(s.data) || s.data[s.pos] != '"' || string(s.data[s.pos+1:end-1]) != name || s.data[end-1] != '"' {
		return false
	}
	s.pos = end
	s.Expect(':')
	return true
}

// Key reads an object's first key, which must be name.
func (s *Scanner) Key(name string) {
	if !s.nextKey(name) {
		s.miss = true
	}
}

// Field reads the comma and key of a following field, which must be
// name.
func (s *Scanner) Field(name string) {
	s.Expect(',')
	s.Key(name)
}

// NextField reads the comma and key of an omitempty field if name is
// the next field, and reports whether it was; otherwise nothing is
// read.
func (s *Scanner) NextField(name string) bool {
	at := s.pos
	if s.next(',') && s.nextKey(name) {
		return true
	}
	s.pos = at
	return false
}

// quoted reads a string of printable ASCII without escapes and returns
// its contents.
func (s *Scanner) quoted() []byte {
	if s.miss {
		return nil
	}
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == '"' {
		for i := s.pos + 1; i < len(s.data); i++ {
			switch c := s.data[i]; {
			case c == '"':
				str := s.data[s.pos+1 : i]
				s.pos = i + 1
				return str
			case c < 0x20 || c == '\\' || c >= 0x80:
				s.miss = true
				return nil
			}
		}
	}
	s.miss = true
	return nil
}

// String reads a string.
func (s *Scanner) String() string { return string(s.quoted()) }

// Time reads a timestamp string as time.Time's UnmarshalJSON parses
// it.
func (s *Scanner) Time() time.Time {
	var t time.Time
	str := s.quoted()
	if s.miss {
		return t
	}
	if err := t.UnmarshalJSON(s.data[s.pos-len(str)-2 : s.pos]); err != nil {
		s.miss = true
	}
	return t
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits reads an integer in plain decimal, with a leading minus sign
// when signed: no leading zeros, no fraction, no exponent, at most
// MaxUint64 in magnitude.
func (s *Scanner) digits(signed bool) (u uint64, neg bool) {
	if s.miss {
		return 0, false
	}
	s.skipSpace()
	p := s.pos
	if signed && p < len(s.data) && s.data[p] == '-' {
		neg = true
		p++
	}
	start := p
	for ; p < len(s.data) && isDigit(s.data[p]); p++ {
		d := uint64(s.data[p] - '0')
		if u > (math.MaxUint64-d)/10 {
			s.miss = true
			return 0, false
		}
		u = u*10 + d
	}
	if p == start || (s.data[start] == '0' && p-start > 1) ||
		(p < len(s.data) && (s.data[p] == '.' || s.data[p] == 'e' || s.data[p] == 'E')) {
		s.miss = true
		return 0, false
	}
	s.pos = p
	return u, neg
}

// Int64 reads an integer that fits in an int64.
func (s *Scanner) Int64() int64 {
	u, neg := s.digits(true)
	switch {
	case neg && u <= 1<<63:
		return int64(-u)
	case !neg && u <= math.MaxInt64:
		return int64(u)
	}
	s.miss = true
	return 0
}

// Int reads an integer that fits in an int.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.miss = true
		return 0
	}
	return int(v)
}

// Uint64 reads an unsigned integer.
func (s *Scanner) Uint64() uint64 {
	u, _ := s.digits(false)
	return u
}

// Float64 reads a number in JSON's grammar that parses to a finite
// float64.
func (s *Scanner) Float64() float64 {
	if s.miss {
		return 0
	}
	s.skipSpace()
	d, p := s.data, s.pos
	run := func() int {
		start := p
		for p < len(d) && isDigit(d[p]) {
			p++
		}
		return p - start
	}
	if p < len(d) && d[p] == '-' {
		p++
	}
	ok := true
	if p < len(d) && d[p] == '0' {
		p++ // a leading zero stands alone; a digit after it is no delimiter
	} else {
		ok = run() > 0
	}
	if ok && p < len(d) && d[p] == '.' {
		p++
		ok = run() > 0
	}
	if ok && p < len(d) && (d[p] == 'e' || d[p] == 'E') {
		p++
		if p < len(d) && (d[p] == '+' || d[p] == '-') {
			p++
		}
		ok = run() > 0
	}
	var f float64
	var err error
	if ok {
		f, err = strconv.ParseFloat(string(d[s.pos:p]), 64)
	}
	if !ok || err != nil {
		s.miss = true
		return 0
	}
	s.pos = p
	return f
}

// Array reads an array whose elements elem reads. An empty array gives
// an empty, non-nil slice, as encoding/json makes it.
func Array[T any](s *Scanner, elem func() T) []T {
	s.Expect('[')
	if s.miss {
		return nil
	}
	out := []T{}
	if s.next(']') {
		return out
	}
	for {
		out = append(out, elem())
		if !s.next(',') {
			break
		}
	}
	s.Expect(']')
	return out
}
