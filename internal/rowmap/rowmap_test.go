package rowmap

import (
	"testing"
	"testing/quick"
	"time"

	"rowfuse/internal/device"
	"rowfuse/internal/timing"
)

func TestSchemeInvertibility(t *testing.T) {
	schemes := []Scheme{
		Identity{},
		mustSwizzle([]int{0, 1, 3, 2}),
		mustSwizzle([]int{0, 2, 1, 3}),
		ForVendor("Samsung"),
		ForVendor("SK Hynix"),
		ForVendor("Micron"),
	}
	for _, s := range schemes {
		f := func(rowRaw uint16) bool {
			row := int(rowRaw)
			return s.Logical(s.Physical(row)) == row && s.Physical(s.Logical(row)) == row
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("scheme %s is not invertible: %v", s.Name(), err)
		}
	}
}

func TestSchemeIsPermutationWithinRange(t *testing.T) {
	const n = 256
	for _, s := range []Scheme{ForVendor("Samsung"), ForVendor("Micron")} {
		seen := make(map[int]bool, n)
		for l := 0; l < n; l++ {
			p := s.Physical(l)
			if p < 0 || p >= n {
				t.Errorf("%s: physical %d out of [0,%d)", s.Name(), p, n)
			}
			if seen[p] {
				t.Errorf("%s: physical %d hit twice", s.Name(), p)
			}
			seen[p] = true
		}
	}
}

func TestGroupSwizzleValidation(t *testing.T) {
	bad := [][]int{
		{},
		{0, 0},
		{0, 2},
		{1, 2, 3},
		{-1, 0},
	}
	for _, perm := range bad {
		if _, err := NewGroupSwizzle(perm); err == nil {
			t.Errorf("permutation %v accepted", perm)
		}
	}
	if _, err := NewGroupSwizzle([]int{2, 0, 1}); err != nil {
		t.Errorf("valid permutation rejected: %v", err)
	}
}

func TestNeighbors(t *testing.T) {
	s := mustSwizzle([]int{0, 1, 3, 2})
	// Logical 2 is physical 3; its physical neighbors 2 and 4 are
	// logical 3 and 4.
	below, above, ok := Neighbors(s, 2, 1024)
	if !ok {
		t.Fatal("neighbors not found")
	}
	if below != 3 || above != 4 {
		t.Errorf("neighbors of logical 2 = (%d, %d), want (3, 4)", below, above)
	}
	// Edge rows have no two-sided neighbors.
	if _, _, ok := Neighbors(Identity{}, 0, 1024); ok {
		t.Error("row 0 reported two neighbors")
	}
	if _, _, ok := Neighbors(Identity{}, 1023, 1024); ok {
		t.Error("last row reported two neighbors")
	}
}

func TestForVendorDefault(t *testing.T) {
	if _, ok := ForVendor("Nameless").(Identity); !ok {
		t.Error("unknown vendor should map to identity")
	}
}

// fakeHammerer answers pair queries from a known scheme, emulating a
// perfect experiment.
type fakeHammerer struct {
	scheme  Scheme
	numRows int
	calls   int
}

func (f *fakeHammerer) HammerPair(a, b int) ([]int, error) {
	f.calls++
	pa, pb := f.scheme.Physical(a), f.scheme.Physical(b)
	if pa > pb {
		pa, pb = pb, pa
	}
	if pb-pa == 2 {
		mid := f.scheme.Logical(pa + 1)
		return []int{mid}, nil
	}
	return nil, nil
}

func TestReverseWithFakeHammerer(t *testing.T) {
	scheme := mustSwizzle([]int{0, 2, 1, 3})
	h := &fakeHammerer{scheme: scheme, numRows: 1024}
	inferred, err := Reverse(h, 8, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(inferred) == 0 {
		t.Fatal("nothing inferred")
	}
	correct, checked := Verify(scheme, inferred, 1024)
	if checked == 0 || correct != checked {
		t.Errorf("verification %d/%d, want all correct with a perfect oracle", correct, checked)
	}
	if h.calls == 0 {
		t.Error("hammerer never called")
	}
}

// TestReverseOnSimulatedDevice runs the full methodology end to end: a
// bank with a Micron-style twist, a device-backed hammerer, and the
// search. This is the paper's Section 3.2 step in miniature.
func TestReverseOnSimulatedDevice(t *testing.T) {
	scheme := ForVendor("Micron")
	profile := device.Profile{
		Serial:              "RM-TEST",
		HammerACmin:         15000,
		PressTau:            40 * time.Millisecond,
		HammerPressSens:     1.0,
		RowSigmaHammer:      0.1,
		RowSigmaPress:       0.15,
		HammerOneToZeroFrac: 0.3,
		PressOneToZeroFrac:  0.95,
		WeakCellsPerMech:    12,
		CellSpacing:         0.05,
	}
	bank, err := device.NewBank(device.BankConfig{
		Profile:  profile,
		Params:   device.DefaultParams(),
		NumRows:  4096,
		RowBytes: 128,
		Mapper:   scheme,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewDeviceHammerer(DeviceHammererConfig{
		Bank:        bank,
		Timings:     timing.Default(),
		HammerACmin: profile.HammerACmin,
		Window:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	inferred, err := Reverse(h, 100, 116, 4)
	if err != nil {
		t.Fatal(err)
	}
	correct, checked := Verify(scheme, inferred, 4096)
	if checked < 10 {
		t.Fatalf("only %d rows checked", checked)
	}
	if float64(correct)/float64(checked) < 0.9 {
		t.Errorf("reverse engineering accuracy %d/%d, want >= 90%%", correct, checked)
	}
}

func TestDeviceHammererValidation(t *testing.T) {
	if _, err := NewDeviceHammerer(DeviceHammererConfig{}); err == nil {
		t.Error("accepted nil bank")
	}
	bank, err := device.NewBank(device.BankConfig{
		Profile: device.Profile{
			Serial: "X", HammerACmin: 1000, PressTau: time.Millisecond,
			WeakCellsPerMech: 4,
		},
		Params:  device.DefaultParams(),
		NumRows: 256, RowBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDeviceHammerer(DeviceHammererConfig{Bank: bank}); err == nil {
		t.Error("accepted missing activation budget")
	}
}
