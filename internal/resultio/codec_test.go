package resultio

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"rowfuse/internal/analysis"
	"rowfuse/internal/core"
	"rowfuse/internal/jsonscan"
)

// fuzzSource draws checkpoint fields from fuzz bytes, reading zeros
// once they run out.
type fuzzSource []byte

func (f *fuzzSource) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

func (f *fuzzSource) u64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(f.byte())
	}
	return v
}

func (f *fuzzSource) int() int {
	switch b := f.byte(); b % 4 {
	case 0:
		return int(b >> 2)
	case 1:
		return []int{math.MaxInt, math.MinInt, -1, math.MaxInt32 + 1}[b>>2%4]
	default:
		return int(f.u64())
	}
}

// fuzzFloats are the finite values at encoding/json's format edges:
// signed zeros, subnormals, both sides of 1e-6 and 1e21, one-digit
// negative exponents (the e-09 to e-9 cleanup) and extremes.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	1e-6, math.Nextafter(1e-6, 0), 1e-7, -1.5e-9, 1e-100,
	1e21, math.Nextafter(1e21, 0), -1e21, 1.2345e300, math.MaxFloat64,
	0.1, 44571.54166666666, 0.0000032948959347356247,
}

func (f *fuzzSource) float() float64 {
	switch b := f.byte(); {
	case b >= 253:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[b-253]
	case b >= 128:
		return math.Float64frombits(f.u64())
	default:
		return fuzzFloats[int(b)%len(fuzzFloats)]
	}
}

// fuzzPieces are string fragments encoding/json escapes (quotes,
// backslashes, HTML-significant and control bytes, U+2028/U+2029,
// invalid UTF-8) or passes through (plain ASCII, DEL, multi-byte
// UTF-8).
var fuzzPieces = []string{
	"S0", "combined", "1/3", "trr", "\"", "\\", "<", ">", "&", "\x00", "\x1f",
	"\b", "\f", "\n", "\r", "\t", "\x7f", "\u00e9", "\u65e5\u672c", "\u2028", "\u2029",
	"\xff", "\xe2\x80", " ",
}

func (f *fuzzSource) str() string {
	var sb strings.Builder
	for range f.byte() % 5 {
		if b := f.byte(); b < 200 {
			sb.WriteString(fuzzPieces[int(b)%len(fuzzPieces)])
		} else {
			sb.WriteByte(f.byte())
		}
	}
	return sb.String()
}

func (f *fuzzSource) welford() core.WelfordState {
	return core.WelfordState{N: f.int(), Mean: f.float(), M2: f.float(), Min: f.float()}
}

// checkpoint builds a checkpoint of up to four cells with nil or empty
// Cells and FlipKeys, optional Shard and Scenario, and fleet state
// taken from a real fleet study or built from the input.
func (f *fuzzSource) checkpoint(realFleet *core.FleetAggState) *Checkpoint {
	cp := &Checkpoint{Version: f.int(), Fingerprint: f.str()}
	flags := f.byte()
	if flags&1 != 0 {
		cp.Shard = f.str()
	}
	if flags&2 == 0 {
		cp.Cells = make([]CellRecord, flags>>2%5)
	}
	for i := range cp.Cells {
		c := &cp.Cells[i]
		c.Module, c.Pattern, c.AggOnNs = f.str(), f.str(), int64(f.u64())
		shape := f.byte()
		if shape&1 != 0 {
			c.Scenario = f.str()
		}
		a := &c.Agg
		a.Total, a.ACmin, a.TimeSec = f.int(), f.welford(), f.welford()
		a.Flips, a.OneToZero = f.int(), f.int()
		switch shape >> 1 & 3 {
		case 1:
			a.FlipKeys = []uint64{}
		case 2, 3:
			for range 1 + f.byte()%8 {
				a.FlipKeys = append(a.FlipKeys, f.u64())
			}
		}
		switch shape >> 3 & 3 {
		case 1:
			a.Fleet = realFleet
		case 2:
			a.Fleet = &core.FleetAggState{Groups: []core.FleetGroupState{{
				Key: f.str(), Chips: f.u64(), Flipped: f.u64(), ACmin: []byte(f.str()),
				Moments: analysis.Moments{N: f.u64(), Mean: f.float(), M2: f.float()},
			}}}
		case 3:
			a.Fleet = &core.FleetAggState{}
		}
	}
	return cp
}

// plain reports whether encoding/json writes s verbatim and the
// scanner takes it: printable ASCII or DEL, nothing escaped.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// scannable reports whether the scanner must take cp's encodings: no
// null, fleet state or escaped string in them.
func scannable(cp *Checkpoint) bool {
	if cp.Cells == nil || !plain(cp.Fingerprint) || !plain(cp.Shard) {
		return false
	}
	for _, c := range cp.Cells {
		if !plain(c.Module) || !plain(c.Pattern) || !plain(c.Scenario) || c.Agg.Fleet != nil {
			return false
		}
	}
	return true
}

// checkWrite compares SaveCheckpoint with the indented json.Encoder it
// replaces: the same bytes, or the same error and nothing written.
func checkWrite(t *testing.T, cp *Checkpoint) []byte {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	wantErr := enc.Encode(cp)
	var got bytes.Buffer
	err := SaveCheckpoint(&got, cp)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != "resultio: encode checkpoint: "+wantErr.Error() || got.Len() > 0 {
			t.Fatalf("SaveCheckpoint = %v after writing %d bytes; encoding/json fails with %v", err, got.Len(), wantErr)
		}
		return nil
	case err != nil:
		t.Fatalf("SaveCheckpoint: %v; encoding/json writes it", err)
	case !bytes.Equal(got.Bytes(), want.Bytes()):
		t.Fatalf("SaveCheckpoint bytes differ from encoding/json's:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}
	return got.Bytes()
}

// scanOrDecode reads a checkpoint as the submit handler does: the
// scanner first, encoding/json on a miss.
func scanOrDecode(data []byte) (cp *Checkpoint, scanned bool, err error) {
	s := jsonscan.New(data)
	if cp := ScanCheckpoint(s); s.OK() {
		return cp, true, nil
	}
	cp = new(Checkpoint)
	return cp, false, json.NewDecoder(bytes.NewReader(data)).Decode(cp)
}

// checkRead compares scanOrDecode with json.Decoder on data and
// reports whether the scanner took it.
func checkRead(t *testing.T, data []byte) bool {
	t.Helper()
	got, scanned, err := scanOrDecode(data)
	var want Checkpoint
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	switch {
	case wantErr != nil:
		if err == nil {
			t.Fatalf("read %q as %+v; encoding/json fails with %v", data, got, wantErr)
		}
	case err != nil:
		t.Fatalf("read %q: %v; encoding/json decodes it", data, err)
	case !reflect.DeepEqual(got, &want):
		t.Fatalf("read %q as\n %#v\nencoding/json decodes\n %#v", data, got, &want)
	}
	return scanned
}

// realFleetState is the fold state of one cell of a small fleet study.
func realFleetState(tb testing.TB) *core.FleetAggState {
	tb.Helper()
	s := core.NewStudy(fleetCfg(8))
	if err := s.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	for _, st := range s.Snapshot() {
		return st.Fleet
	}
	tb.Fatal("fleet study has no cells")
	return nil
}

// goldenLayouts returns a checkpoint as SaveCheckpoint writes it and
// as json.Marshal does: the golden checkpoint, or its first cells alone
// when cells > 0.
func goldenLayouts(tb testing.TB, cells int) (indented, compact []byte) {
	tb.Helper()
	indented, err := os.ReadFile("../../testdata/golden_checkpoint.json")
	if err != nil {
		tb.Fatal(err)
	}
	if cells > 0 {
		var cp Checkpoint
		if err := json.Unmarshal(indented, &cp); err != nil {
			tb.Fatal(err)
		}
		cp.Cells = cp.Cells[:cells]
		if indented, err = json.MarshalIndent(&cp, "", "  "); err != nil {
			tb.Fatal(err)
		}
		indented = append(indented, '\n')
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, indented); err != nil {
		tb.Fatal(err)
	}
	return indented, buf.Bytes()
}

// checkpointSeeds are reader inputs: the golden checkpoint's first two
// cells indented and compact, and mutations encoding/json reads
// differently from the canonical layout or rejects. The whole 14 KB
// file is no seed: the fuzzer minimizes every new input it finds, and
// at that size each minimization takes its whole time budget.
func checkpointSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	head, compact := goldenLayouts(tb, 2)
	seeds := [][]byte{head, compact}
	for _, m := range [][2]string{
		{`"version": 1`, `"version": 01`},
		{`"version": 1`, `"version": 1.0`},
		{`"version": 1`, `"version": 1e0`},
		{`"version": 1`, `"version": -0`},
		{`"version": 1`, `"Version": 1`},
		{`"version": 1`, `"version": 99999999999999999999`},
		{`"total": 24`, `"total": 024`},
		{`"flips": 24`, `"flips": -24`},
		{`"module": "S0"`, `"module": "S\u0030"`},
		{`"module": "S0"`, `"module": "S0\u00e9"`},
		{`"module": "S0"`, "\"module\": \"S0\xff\""},
		{`"module": "S0"`, `"module": null`},
		{`"pattern": "combined",`, `"pattern": "combined", "pattern": "double",`},
		{`"taggonNs": 36,`, `"taggonNs": 36, "scenario": "",`},
		{`"taggonNs": 36,`, `"taggonNs": 36, "extra": 1,`},
		{`"oneToZero": 3,`, `"oneToZero": 3, "flipKeys": [], "fleet": null,`},
		{`"oneToZero": 3`, `"oneToZero": 3, "flipKeys": []`},
		{`"oneToZero": 3`, `"oneToZero": 3, "flipKeys": null`},
		{`"oneToZero": 3`, `"oneToZero": 3, "flipKeys": [ 18446744073709551615 ]`},
		{`"oneToZero": 3`, `"oneToZero": 3, "flipKeys": [18446744073709551616]`},
		{`"oneToZero": 3`, `"oneToZero": 3, "flipKeys": [-1]`},
		{`"min": 28842`, `"min": 2.8842E+4`},
		{`"min": 28842`, `"min": 1e400`},
		{`"min": 28842`, `"min": -0.0`},
		{`"min": 28842`, `"min": 00.5`},
		{`"min": 28842`, `"min": .5`},
		{`"min": 28842`, `"min": 5.`},
		{`"fingerprint": "b2f794ce57dad401163edebacec78941",`, `"fingerprint": "fp", "shard": "2/3",`},
		{"{\n  \"version\"", " \t\r\n{\"version\""},
	} {
		if !bytes.Contains(head, []byte(m[0])) {
			tb.Fatalf("seed mutation %q: not in the golden's first cells", m[0])
		}
		seeds = append(seeds, bytes.Replace(head, []byte(m[0]), []byte(m[1]), 1))
	}
	return append(seeds,
		[]byte(`{"version":1,"fingerprint":"fp","cells":[]}`),
		[]byte(`{"version":1,"fingerprint":"fp","cells":null}`),
		[]byte(`{"version":1,"fingerprint":"fp","cells":[]} trailing`),
		[]byte(`{"version":1,"fingerprint":"fp","cells":[]`),
		[]byte(`null`),
		[]byte(``),
	)
}

// FuzzCheckpointCodec holds the reflection-free codec to encoding/json.
// (a) A checkpoint built from the input, with floats at every format
// edge, extreme ints, strings encoding/json escapes and fleet state,
// must save to the indented json.Encoder's bytes, or fail with its
// error; its indented and compact encodings must then read back as
// encoding/json reads them, and the scanner must take them when they
// are in its subset. (b) The input itself, read by the scanner with
// encoding/json as the fallback, must decode as encoding/json decodes
// it, or fail as that does.
func FuzzCheckpointCodec(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed)
	}
	// Generator seeds: a one-cell checkpoint with empty FlipKeys and
	// floats whose exponents take the e-09 to e-9 cleanup, and a
	// sharded one with nil Cells.
	f.Add([]byte{4, 1, 0, 4, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 36, 2, 8, 8, 7, 8, 2, 8, 6, 9, 11, 4, 0})
	f.Add([]byte{4, 0, 3, 1, 2})
	realFleet := realFleetState(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzSource(data)
		cp := src.checkpoint(realFleet)
		if indented := checkWrite(t, cp); indented != nil {
			compact, err := json.Marshal(cp)
			if err != nil {
				t.Fatal(err)
			}
			for _, enc := range [][]byte{indented, compact} {
				if !checkRead(t, enc) && scannable(cp) {
					t.Fatalf("the scanner missed a canonical checkpoint:\n%s", enc)
				}
			}
		}
		checkRead(t, data)
	})
}

// The scanner takes the golden checkpoint in both layouts, so the
// canonical submit path is the one that runs.
func TestScanCheckpointTakesCanonicalLayouts(t *testing.T) {
	indented, compact := goldenLayouts(t, 0)
	for _, data := range [][]byte{indented, compact} {
		if !checkRead(t, data) {
			t.Fatalf("scanner missed the golden checkpoint:\n%.200s", data)
		}
	}
}

// studyCheckpoint is the 588-cell checkpoint of the -exp all grid at
// four rows per region, one die and one run (the grid-http campaign at
// seed 5).
func studyCheckpoint(tb testing.TB) *Checkpoint {
	tb.Helper()
	cfg, err := core.NewCampaignSpecBuilder(core.WithExp("all"), core.WithScale(4, 1, 1)).StudyConfig()
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Bank, cfg.Opts.Run = 5, 6
	s := core.NewStudy(cfg)
	if err := s.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return NewCheckpoint(cfg.Fingerprint(), core.ShardPlan{}, s.Snapshot())
}

func BenchmarkSaveCheckpoint(b *testing.B) {
	cp := studyCheckpoint(b)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, cp); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		buf.Reset()
		if err := SaveCheckpoint(&buf, cp); err != nil {
			b.Fatal(err)
		}
	}
}
