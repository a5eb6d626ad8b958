package mitigation

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"rowfuse/internal/core"
	"rowfuse/internal/device"
	"rowfuse/internal/pattern"
	"rowfuse/internal/timing"
)

// --- ECC -----------------------------------------------------------------

func TestECCRoundTripClean(t *testing.T) {
	data := []byte{0x55, 0xAA, 0x00, 0xFF, 0x12, 0x34, 0x56, 0x78}
	check, err := EncodeWord(data)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), data...)
	res, err := DecodeWord(buf, check)
	if err != nil {
		t.Fatal(err)
	}
	if res != ECCOK {
		t.Errorf("clean word decoded as %v", res)
	}
}

func TestECCCorrectsEverySingleBitError(t *testing.T) {
	data := []byte{0x55, 0xAA, 0x00, 0xFF, 0x12, 0x34, 0x56, 0x78}
	check, err := EncodeWord(data)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 64; bit++ {
		buf := append([]byte(nil), data...)
		flipDataBit(buf, bit)
		res, err := DecodeWord(buf, check)
		if err != nil {
			t.Fatal(err)
		}
		if res != ECCCorrected {
			t.Fatalf("bit %d: decode result %v, want corrected", bit, res)
		}
		for i := range buf {
			if buf[i] != data[i] {
				t.Fatalf("bit %d: data not restored (byte %d)", bit, i)
			}
		}
	}
}

func TestECCDetectsDoubleBitErrors(t *testing.T) {
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04}
	check, err := EncodeWord(data)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw)%64, int(bRaw)%64
		if a == b {
			return true
		}
		buf := append([]byte(nil), data...)
		flipDataBit(buf, a)
		flipDataBit(buf, b)
		res, err := DecodeWord(buf, check)
		return err == nil && res == ECCDetected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestECCCheckByteError(t *testing.T) {
	data := make([]byte, 8)
	check, err := EncodeWord(data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the overall-parity bit of the check byte: data is clean.
	buf := append([]byte(nil), data...)
	res, err := DecodeWord(buf, check^0x80)
	if err != nil {
		t.Fatal(err)
	}
	if res != ECCCorrected {
		t.Errorf("overall-parity error decoded as %v", res)
	}
	for i := range buf {
		if buf[i] != 0 {
			t.Error("data corrupted by check-byte correction")
		}
	}
}

func TestECCSizeErrors(t *testing.T) {
	if _, err := EncodeWord(make([]byte, 7)); err == nil {
		t.Error("short word encoded")
	}
	if _, err := DecodeWord(make([]byte, 9), 0); err == nil {
		t.Error("long word decoded")
	}
}

func TestEvaluateRow(t *testing.T) {
	golden := device.FillRow(64, 0x55)
	observed := append([]byte(nil), golden...)
	// One single-bit flip in word 0 and a double-bit flip in word 3.
	flipDataBit(observed[0:8], 5)
	flipDataBit(observed[24:32], 1)
	flipDataBit(observed[24:32], 60)
	out, err := EvaluateRow(golden, observed)
	if err != nil {
		t.Fatal(err)
	}
	if out.Words != 8 || out.Clean != 6 || out.Corrected != 1 || out.Detected != 1 {
		t.Errorf("outcome %+v, want 8 words / 6 clean / 1 corrected / 1 detected", out)
	}
	if out.ResidualErr != 1 {
		t.Errorf("residual errors = %d, want 1 (the uncorrectable word)", out.ResidualErr)
	}
	if _, err := EvaluateRow(golden, golden[:32]); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := EvaluateRow(golden[:7], observed[:7]); err == nil {
		t.Error("non-multiple length accepted")
	}
}

// --- Misra-Gries tracker -------------------------------------------------

func TestMisraGriesFindsHeavyHitters(t *testing.T) {
	m := NewMisraGries(4)
	// Rows 100 and 102 are hot; background rows are cold.
	for i := 0; i < 10000; i++ {
		m.Observe(100)
		m.Observe(102)
		m.Observe(1000 + i%500)
	}
	top := m.Top(2)
	found := map[int]bool{}
	for _, r := range top {
		found[r] = true
	}
	if !found[100] || !found[102] {
		t.Errorf("top-2 = %v, want the two aggressors", top)
	}
	m.Reset()
	if len(m.Top(4)) != 0 {
		t.Error("reset did not clear counters")
	}
}

// TestMisraGriesGuarantee checks the summary's frequency guarantee: any
// item occurring more than n/(k+1) times must be present.
func TestMisraGriesGuarantee(t *testing.T) {
	f := func(seed uint8) bool {
		m := NewMisraGries(8)
		n := 4000
		hot := int(seed)
		for i := 0; i < n; i++ {
			if i%3 == 0 { // ~33% > 1/9 of the stream
				m.Observe(hot)
			} else {
				m.Observe(10000 + i) // all distinct
			}
		}
		for _, r := range m.Top(8) {
			if r == hot {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// --- Guard / eval --------------------------------------------------------

func mitBank(t *testing.T) *device.Bank {
	t.Helper()
	b, err := device.NewBank(device.BankConfig{
		Profile: device.Profile{
			Serial:              "MIT-TEST",
			HammerACmin:         20000,
			PressTau:            30 * time.Millisecond,
			HammerPressSens:     1.5,
			RowSigmaHammer:      0.15,
			RowSigmaPress:       0.2,
			HammerOneToZeroFrac: 0.3,
			PressOneToZeroFrac:  0.95,
			WeakCellsPerMech:    16,
			CellSpacing:         0.05,
			RetentionMin:        70 * time.Millisecond,
		},
		Params:   device.DefaultParams(),
		NumRows:  4096,
		RowBytes: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mitSpec(t *testing.T, k pattern.Kind, aggOn time.Duration) pattern.Spec {
	t.Helper()
	s, err := pattern.New(k, aggOn, timing.Default())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// characterize hammers victim on bank through the mitigation engine
// that -exp mitigation runs, at the paper's budget and data pattern, and
// returns the result with the REF commands the bank saw.
func characterize(t *testing.T, cfg EngineConfig, spec pattern.Spec, victim int) (core.RowResult, int64) {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.CharacterizeRow(victim, spec, core.RunOpts{Budget: core.DefaultBudget, Data: device.Checkerboard})
	if err != nil {
		t.Fatal(err)
	}
	_, _, refs := cfg.Bank.Counters()
	return res, refs
}

func TestBaselineFlipsWithoutMitigation(t *testing.T) {
	res, refs := characterize(t, EngineConfig{Bank: mitBank(t)}, mitSpec(t, pattern.DoubleSided, timing.TRAS), 500)
	if res.NoBitflip {
		t.Fatal("unprotected RowHammer did not flip")
	}
	if refs != 0 {
		t.Errorf("baseline issued %d refreshes, want 0 (paper methodology)", refs)
	}
}

func TestTRRGuardBlocksRowHammer(t *testing.T) {
	bank := mitBank(t)
	guard, err := NewGuard(GuardConfig{Bank: bank, Tracker: NewMisraGries(16)})
	if err != nil {
		t.Fatal(err)
	}
	res, refs := characterize(t, EngineConfig{Bank: bank, Guard: guard, RefInterval: timing.TREFI},
		mitSpec(t, pattern.DoubleSided, timing.TRAS), 500)
	if !res.NoBitflip {
		t.Errorf("TRR failed against two-aggressor RowHammer (flip at %v)", res.TimeToFirst)
	}
	if guard.TRRRefreshes() == 0 {
		t.Error("guard never fired a targeted refresh")
	}
	if refs == 0 {
		t.Error("no regular refreshes issued")
	}
}

func TestRegularRefreshAloneIsInsufficient(t *testing.T) {
	// Without TRR, plain tREFI refresh does not stop RowHammer: a
	// victim's turn in the round-robin comes only once per tREFW, far
	// apart enough for ACmin to accumulate.
	res, _ := characterize(t, EngineConfig{Bank: mitBank(t), RefInterval: timing.TREFI},
		mitSpec(t, pattern.DoubleSided, timing.TRAS), 500)
	if res.NoBitflip {
		t.Skip("round-robin refresh happened to cover the victim in time on this geometry")
	}
}

func TestGuardValidation(t *testing.T) {
	if _, err := NewGuard(GuardConfig{}); err == nil {
		t.Error("accepted nil bank")
	}
	g, err := NewGuard(GuardConfig{Bank: mitBank(t)})
	if err != nil {
		t.Fatal(err)
	}
	if g.TRRRefreshes() != 0 {
		t.Error("fresh guard has targeted refreshes")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := NewEngine(EngineConfig{}); !errors.Is(err, ErrNilBank) {
		t.Errorf("nil bank: %v, want ErrNilBank", err)
	}
	eng, err := NewEngine(EngineConfig{Bank: mitBank(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CharacterizeRow(0, mitSpec(t, pattern.DoubleSided, timing.TRAS), core.RunOpts{}); err == nil {
		t.Error("accepted edge victim")
	}
}

func TestDecodeResultString(t *testing.T) {
	for _, r := range []DecodeResult{ECCOK, ECCCorrected, ECCDetected, DecodeResult(9)} {
		if r.String() == "" {
			t.Errorf("empty name for %d", int(r))
		}
	}
}
