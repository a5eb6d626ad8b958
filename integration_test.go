package rowfuse_test

import (
	"testing"
	"time"

	"rowfuse/internal/bender"
	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/device"
	"rowfuse/internal/mitigation"
	"rowfuse/internal/pattern"
	"rowfuse/internal/rowmap"
	"rowfuse/internal/timing"
)

// TestEndToEndMethodology replays the paper's full methodology on one
// simulated module, end to end:
//
//  1. build the device with its vendor's in-DRAM row remapping,
//  2. reverse-engineer the physical row layout by hammering (Sec. 3.2),
//  3. run the combined-pattern characterization through the DRAM Bender
//     program path on physically adjacent rows found in step 2,
//  4. cross-check the measured ACmin against the analytic engine and
//     against the paper's Table 2 regime.
func TestEndToEndMethodology(t *testing.T) {
	mi, err := chipdb.ByID("H1")
	if err != nil {
		t.Fatal(err)
	}
	params := device.DefaultParams()
	profile := mi.Profile(params)
	scheme := rowmap.ForVendor(mi.Mfr.Name())

	const numRows, rowBytes = 4096, 256
	bank, err := device.NewBank(device.BankConfig{
		Profile:  profile,
		Params:   params,
		NumRows:  numRows,
		RowBytes: rowBytes,
		Mapper:   scheme,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Step 2: recover physical adjacency around logical row 500.
	hammerer, err := rowmap.NewDeviceHammerer(rowmap.DeviceHammererConfig{
		Bank:        bank,
		Timings:     timing.Default(),
		HammerACmin: profile.HammerACmin,
		Window:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	inferred, err := rowmap.Reverse(hammerer, 500, 508, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(inferred) == 0 {
		t.Fatal("reverse engineering found no victims")
	}
	correct, checked := rowmap.Verify(scheme, inferred, numRows)
	if checked == 0 || correct < checked*9/10 {
		t.Fatalf("reverse engineering accuracy %d/%d", correct, checked)
	}

	// Pick one recovered victim with its two aggressor rows.
	var victim int
	var aggs []int
	for v, a := range inferred {
		if len(a) == 2 {
			victim, aggs = v, a
			break
		}
	}
	if aggs == nil {
		t.Fatal("no victim with two recovered aggressors")
	}

	// Step 3: characterize through the bender program path. The
	// recovered aggressors are logical addresses; the combined pattern
	// needs the *physical* sandwich, which is exactly what the
	// reverse-engineering gives us. Build the program against a fresh
	// identity-mapped chip at the physical coordinates to compare with
	// the analytic engine.
	physVictim := scheme.Physical(victim)
	spec, err := pattern.New(pattern.Combined, 636*time.Nanosecond, timing.Default())
	if err != nil {
		t.Fatal(err)
	}

	// NewChip derives a per-die serial (die 0); the analytic engine must
	// model the same die to see the same weak-cell population.
	analytic, err := core.NewAnalyticEngine(core.AnalyticConfig{
		Profile:  device.DieProfile(profile, 0),
		Params:   params,
		NumRows:  numRows,
		RowBytes: rowBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := analytic.CharacterizeRow(physVictim, spec, core.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if want.NoBitflip {
		t.Fatal("analytic engine reports no flip for the recovered victim")
	}

	// Execute iters via a compiled bender program on an identity-mapped
	// chip and confirm the flip appears in the victim readback.
	chip, err := device.NewChip(device.ChipConfig{
		Profile:  profile,
		Params:   params,
		NumRows:  numRows,
		RowBytes: rowBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := bender.NewEngine(bender.EngineConfig{Chip: chip, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bender.CompileCharacterization(
		spec, 0, physVictim, rowBytes, 0xAA, 0x55, want.Iterations+want.Iterations/50+2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(prog); err != nil {
		t.Fatal(err)
	}
	captured := eng.Captured()
	victimData := captured[len(captured)-rowBytes:]
	flipped := false
	for _, b := range victimData {
		if b != 0x55 {
			flipped = true
			break
		}
	}
	if !flipped {
		t.Error("bender-path characterization did not reproduce the analytic flip")
	}

	// The recorded command trace of the whole experiment must be
	// JEDEC-legal.
	if err := eng.Trace().Validate(timing.Default()); err != nil {
		t.Errorf("experiment trace violates timing rules: %v", err)
	}

	// Step 4: the measured regime matches the paper: H1's combined
	// ACmin at 636 ns sits well below its RowHammer ACmin.
	if float64(want.ACmin) > mi.Paper.RH.Avg {
		t.Errorf("combined ACmin %d above RowHammer baseline %.0f", want.ACmin, mi.Paper.RH.Avg)
	}
}

// TestMitigationEndToEnd: the full defense story on one module — the
// unprotected combined pattern flips, TRR blocks it, and rank ECC would
// have corrected the single-bit outcome.
func TestMitigationEndToEnd(t *testing.T) {
	mi, err := chipdb.ByID("S3")
	if err != nil {
		t.Fatal(err)
	}
	params := device.DefaultParams()
	newBank := func() *device.Bank {
		b, err := device.NewBank(device.BankConfig{
			Profile: mi.Profile(params),
			Params:  params,
			NumRows: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	spec, err := pattern.New(pattern.Combined, 636*time.Nanosecond, timing.Default())
	if err != nil {
		t.Fatal(err)
	}

	const victim = 1500
	characterize := func(cfg mitigation.EngineConfig) core.RowResult {
		eng, err := mitigation.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.CharacterizeRow(victim, spec, core.RunOpts{Budget: core.DefaultBudget, Data: device.Checkerboard})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bank := newBank()
	if characterize(mitigation.EngineConfig{Bank: bank}).NoBitflip {
		t.Fatal("unprotected combined pattern did not flip")
	}

	// ECC masking of the observed single-bit flip.
	observed, err := bank.RowData(victim, 0)
	if err != nil {
		t.Fatal(err)
	}
	golden := device.FillRow(bank.RowBytes(), 0x55)
	ecc, err := mitigation.EvaluateRow(golden, observed)
	if err != nil {
		t.Fatal(err)
	}
	if ecc.Corrected == 0 || ecc.ResidualErr != 0 {
		t.Errorf("rank ECC outcome %+v, want the first flip corrected", ecc)
	}

	// TRR protection.
	bank2 := newBank()
	guard, err := mitigation.NewGuard(mitigation.GuardConfig{Bank: bank2})
	if err != nil {
		t.Fatal(err)
	}
	if prot := characterize(mitigation.EngineConfig{Bank: bank2, Guard: guard, RefInterval: timing.TREFI}); !prot.NoBitflip {
		t.Errorf("TRR failed against the combined pattern at 636ns (flip at %v)", prot.TimeToFirst)
	}
}
