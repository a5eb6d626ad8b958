package resultio

import (
	"cmp"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"rowfuse/internal/core"
	"rowfuse/internal/jsonscan"
)

// The checkpoint codec: a writer of the file bytes and a reader of the
// canonical layout, neither using reflection. The writer emits exactly
// what json.Encoder with SetIndent("", "  ") emits for a Checkpoint,
// and the reader decodes exactly what json.Unmarshal decodes from the
// inputs it takes; encoding/json stays the reference for both (see
// FuzzCheckpointCodec).

// Per-cell and per-flip-key sizes of the indented layout that
// checkpointSize budgets: a cell's fixed text and numbers (its strings
// are added as they are), and one flip-key line.
const (
	cellBytes    = 424
	flipKeyBytes = 28
)

// checkpointSize estimates cp's encoded size from its cell and
// flip-key counts, so encodeCheckpoint grows its buffer rarely and
// never far past the result.
func checkpointSize(cp *Checkpoint) int {
	n := 64 + len(cp.Fingerprint) + len(cp.Shard)
	for i := range cp.Cells {
		c := &cp.Cells[i]
		n += cellBytes + len(c.Module) + len(c.Pattern) + len(c.Scenario) + flipKeyBytes*len(c.Agg.FlipKeys)
	}
	return n
}

// encodeCheckpoint returns the checkpoint file bytes: the indented
// JSON with its trailing newline.
func encodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	w := cpWriter{b: make([]byte, 0, checkpointSize(cp))}
	w.raw("{\n  \"version\": ")
	w.int(int64(cp.Version))
	w.raw(",\n  \"fingerprint\": ")
	w.str(cp.Fingerprint)
	if cp.Shard != "" {
		w.raw(",\n  \"shard\": ")
		w.str(cp.Shard)
	}
	w.raw(",\n  \"cells\": ")
	switch {
	case cp.Cells == nil:
		w.raw("null")
	case len(cp.Cells) == 0:
		w.raw("[]")
	default:
		w.raw("[")
		for i := range cp.Cells {
			if i > 0 {
				w.raw(",")
			}
			w.cell(&cp.Cells[i])
		}
		w.raw("\n  ]")
	}
	w.raw("\n}\n")
	return w.b, w.err
}

// cpWriter appends one checkpoint. err keeps the first value
// encoding/json would refuse; the bytes are void once it is set.
type cpWriter struct {
	b   []byte
	err error
}

func (w *cpWriter) raw(s string)   { w.b = append(w.b, s...) }
func (w *cpWriter) int(v int64)    { w.b = strconv.AppendInt(w.b, v, 10) }
func (w *cpWriter) str(s string)   { w.b = appendString(w.b, s) }
func (w *cpWriter) fail(err error) { w.err = cmp.Or(w.err, err) }

func (w *cpWriter) cell(c *CellRecord) {
	w.raw("\n    {\n      \"module\": ")
	w.str(c.Module)
	w.raw(",\n      \"pattern\": ")
	w.str(c.Pattern)
	w.raw(",\n      \"taggonNs\": ")
	w.int(c.AggOnNs)
	if c.Scenario != "" {
		w.raw(",\n      \"scenario\": ")
		w.str(c.Scenario)
	}
	a := &c.Agg
	w.raw(",\n      \"agg\": {\n        \"total\": ")
	w.int(int64(a.Total))
	w.raw(",\n        \"acmin\": ")
	w.welford(&a.ACmin)
	w.raw(",\n        \"timeSec\": ")
	w.welford(&a.TimeSec)
	w.raw(",\n        \"flips\": ")
	w.int(int64(a.Flips))
	w.raw(",\n        \"oneToZero\": ")
	w.int(int64(a.OneToZero))
	if len(a.FlipKeys) > 0 {
		w.raw(",\n        \"flipKeys\": [")
		for i, k := range a.FlipKeys {
			if i > 0 {
				w.raw(",")
			}
			w.raw("\n          ")
			w.b = strconv.AppendUint(w.b, k, 10)
		}
		w.raw("\n        ]")
	}
	if a.Fleet != nil {
		// Fleet state is rare and never on a hot path; encoding/json
		// indents it at this depth as it would inside the whole file.
		fleet, err := json.MarshalIndent(a.Fleet, "        ", "  ")
		w.fail(err)
		w.raw(",\n        \"fleet\": ")
		w.b = append(w.b, fleet...)
	}
	w.raw("\n      }\n    }")
}

func (w *cpWriter) welford(s *core.WelfordState) {
	w.raw("{\n          \"n\": ")
	w.int(int64(s.N))
	w.raw(",\n          \"mean\": ")
	w.float(s.Mean)
	w.raw(",\n          \"m2\": ")
	w.float(s.M2)
	w.raw(",\n          \"min\": ")
	w.float(s.Min)
	w.raw("\n        }")
}

// float appends f in encoding/json's format: like strconv's shortest
// 'f' form inside [1e-6, 1e21) and 'e' form outside it, with the
// exponent's leading zero dropped (e-09 becomes e-9).
func (w *cpWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f) // encoding/json's own UnsupportedValueError
		w.fail(err)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(w.b)
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && n-start >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes it by default:
// '"' and '\\' backslashed; \b, \f, \n, \r, \t by name; other control
// bytes and the HTML-significant '<', '>' and '&' as \u00XX; invalid
// UTF-8 bytes as \ufffd; U+2028 and U+2029 as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// ScanCheckpoint reads a checkpoint laid out as SaveCheckpoint or
// json.Marshal writes one (indented or compact), without reflection.
// Anything else, fleet cells and escaped or non-ASCII strings among it,
// is a miss: s.OK() turns false, the result is to be dropped, and the
// caller decodes the bytes with encoding/json. A checkpoint s takes
// equals what encoding/json decodes from the same bytes.
func ScanCheckpoint(s *jsonscan.Scanner) *Checkpoint {
	cp := new(Checkpoint)
	s.Expect('{')
	s.Key("version")
	cp.Version = s.Int()
	s.Field("fingerprint")
	cp.Fingerprint = s.String()
	if s.NextField("shard") {
		cp.Shard = s.String()
	}
	s.Field("cells")
	cp.Cells = jsonscan.Array(s, func() CellRecord { return scanCell(s) })
	s.Expect('}')
	return cp
}

func scanCell(s *jsonscan.Scanner) (c CellRecord) {
	s.Expect('{')
	s.Key("module")
	c.Module = s.String()
	s.Field("pattern")
	c.Pattern = s.String()
	s.Field("taggonNs")
	c.AggOnNs = s.Int64()
	if s.NextField("scenario") {
		c.Scenario = s.String()
	}
	s.Field("agg")
	a := &c.Agg
	s.Expect('{')
	s.Key("total")
	a.Total = s.Int()
	s.Field("acmin")
	scanWelford(s, &a.ACmin)
	s.Field("timeSec")
	scanWelford(s, &a.TimeSec)
	s.Field("flips")
	a.Flips = s.Int()
	s.Field("oneToZero")
	a.OneToZero = s.Int()
	if s.NextField("flipKeys") {
		a.FlipKeys = jsonscan.Array(s, s.Uint64)
	}
	s.Expect('}')
	s.Expect('}')
	return c
}

func scanWelford(s *jsonscan.Scanner, w *core.WelfordState) {
	s.Expect('{')
	s.Key("n")
	w.N = s.Int()
	s.Field("mean")
	w.Mean = s.Float64()
	s.Field("m2")
	w.M2 = s.Float64()
	s.Field("min")
	w.Min = s.Float64()
	s.Expect('}')
}
