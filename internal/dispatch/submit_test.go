package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/resultio"
)

// gridSubmitBody is the body Client.Submit sends for the first 36
// cells of the -exp all grid at four rows per region (one unit of the
// grid-http campaign at seed 5, which splits 588 cells into 16 units).
func gridSubmitBody(tb testing.TB) []byte {
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
	all := s.Snapshot()
	cells := make([]int, 36)
	unit := make(map[core.CellKey]core.AggregateState, len(cells))
	for i, key := range s.Cells()[:len(cells)] {
		cells[i] = i
		unit[key] = all[key]
	}
	req := submitRequest{
		Lease: Lease{
			Unit: 3, Worker: "worker-1", Token: "9f86d081884c7d659a2feaa0c55ad015",
			Expires: time.Date(2026, 10, 20, 17, 12, 0, 123456789, time.UTC), Cells: cells,
		},
		Checkpoint: resultio.NewCheckpoint(cfg.Fingerprint(), core.ShardPlan{}, unit),
		ElapsedNs:  2_718_281,
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// smallSubmitBody is a canonical body with every optional field set
// (lease cells, a shard, a scenario and flip keys) in its first cell
// and none in its second.
func smallSubmitBody(tb testing.TB) []byte {
	tb.Helper()
	cp := &resultio.Checkpoint{Version: 1, Fingerprint: "fp", Shard: "2/3", Cells: []resultio.CellRecord{{
		Module: "S0", Pattern: "combined", AggOnNs: 36, Scenario: "trr",
		Agg: core.AggregateState{
			Total: 2, Flips: 1, OneToZero: 1, FlipKeys: []uint64{7, 1 << 40},
			ACmin:   core.WelfordState{N: 2, Mean: 44571.5, M2: 1.5e-9, Min: 28842},
			TimeSec: core.WelfordState{N: 2, Mean: 0.0022731336249999998, M2: 3.2948959347356247e-6, Min: 0.001470927},
		},
	}, {
		Module: "S1", Pattern: "rowpress", AggOnNs: 7800,
		Agg: core.AggregateState{Total: 1, ACmin: core.WelfordState{N: 1, Mean: 7551, Min: 7551}},
	}}}
	body, err := json.Marshal(submitRequest{
		Lease:      Lease{Unit: 1, Worker: "w", Token: "t", Expires: time.Unix(1000, 5).In(time.FixedZone("", 7200)), Cells: []int{4, 5}},
		Checkpoint: cp, ElapsedNs: 9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// checkSubmitDecode compares decodeSubmit with json.Decoder on body and
// reports whether the scanner took it.
func checkSubmitDecode(t *testing.T, body []byte) bool {
	t.Helper()
	got, err := decodeSubmit(body)
	var want submitRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	switch {
	case wantErr != nil:
		if err == nil {
			t.Fatalf("decoded %q as %+v; encoding/json fails with %v", body, got, wantErr)
		}
	case err != nil:
		t.Fatalf("decode %q: %v; encoding/json decodes it", body, err)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decoded %q as\n %#v\nencoding/json decodes\n %#v", body, got, want)
	}
	_, ok := scanSubmit(body)
	return ok
}

// TestScanSubmitTakesClientBodies: the bodies Client.Submit sends are
// in the scanner's subset, so the handler's fast path is the one that
// runs.
func TestScanSubmitTakesClientBodies(t *testing.T) {
	for _, body := range [][]byte{gridSubmitBody(t), smallSubmitBody(t)} {
		if !checkSubmitDecode(t, body) {
			t.Fatalf("scanner missed a client body:\n%.300s", body)
		}
	}
}

// FuzzSubmitDecode holds the submit handler's decode to encoding/json:
// for any body, decodeSubmit must yield the request
// json.NewDecoder(...).Decode yields, or fail as that does. Seeds are a
// small client body and mutations of it that encoding/json reads
// differently from the canonical layout or rejects. The grid body is no
// seed: the fuzzer minimizes every new input it finds, and at 13 KB
// each minimization takes seconds.
func FuzzSubmitDecode(f *testing.F) {
	small := smallSubmitBody(f)
	f.Add(small)
	for _, m := range [][2]string{
		{`"unit":1`, `"unit":01`},
		{`"unit":1`, `"unit":1e0`},
		{`"unit":1`, `"Unit":1`},
		{`"unit":1`, `"unit":"1"`},
		{`"unit":1`, `"unit":9223372036854775808`},
		{`"worker":"w"`, `"worker":"w\"x"`},
		{`"worker":"w"`, "\"worker\":\"w\xc3\xa9\""},
		{`"token":"t"`, `"token":"\u0074"`},
		{`"expires":"`, `"expires":"x`},
		{`"expires":"1970-01-01T02:16:40.000000005+02:00"`, `"expires":"1970-01-01T00:16:40.000000005Z"`},
		{`"expires":"1970-01-01T02:16:40.000000005+02:00"`, `"expires":null`},
		{`"cells":[4,5]`, `"cells":[]`},
		{`"cells":[4,5]`, `"cells":null`},
		{`"cells":[4,5]`, `"cells":[4, 5 ]`},
		{`"lease":{`, `"lease":{},"lease":{`},
		{`"checkpoint":{`, `"checkpoint":null,"c":{`},
		{`"shard":"2/3",`, ``},
		{`"scenario":"trr",`, ``},
		{`"version":1`, `"version":-1`},
		{`"elapsedNs":9`, `"elapsedNs":-9`},
		{`"elapsedNs":9`, `"elapsedNs":9.5`},
		{`,"elapsedNs":9`, ``},
		{`"m2":1.5e-9`, `"m2":1.5E-09`},
		{`"m2":1.5e-9`, `"m2":015`},
		{`}}]},"elapsedNs"`, `}}] } ,"elapsedNs"`},
	} {
		if !bytes.Contains(small, []byte(m[0])) {
			f.Fatalf("seed mutation %q: not in the small body %s", m[0], small)
		}
		f.Add(bytes.Replace(small, []byte(m[0]), []byte(m[1]), 1))
	}
	f.Add(append(bytes.Clone(small), "{garbage"...))
	f.Add(append([]byte(" \n\t"), small...))
	f.Add(small[:len(small)-1])
	f.Add([]byte(`{"checkpoint":null,"lease":{"unit":1}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSubmitDecode(t, body)
	})
}

func BenchmarkDecodeSubmit(b *testing.B) {
	body := gridSubmitBody(b)
	if _, ok := scanSubmit(body); !ok {
		b.Fatal("scanner missed the client body")
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := decodeSubmit(body); err != nil {
			b.Fatal(err)
		}
	}
}
