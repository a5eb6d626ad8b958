package device

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// bankField reads one field of a bank, exported or not.
func bankField(b *Bank, i int) any {
	f := reflect.ValueOf(b).Elem().Field(i)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
}

// TestResetMatchesNewBank dirties a bank through every kind of state a
// run leaves behind (written, disturbed and flipped rows, refreshes, a
// temperature change, an open row), Resets it to a different
// configuration, and requires every field to equal a fresh NewBank's,
// except the scratch Reset keeps on purpose. A field added later is
// covered without touching this test.
func TestResetMatchesNewBank(t *testing.T) {
	weak := validProfile()
	weak.Serial, weak.HammerACmin, weak.RetentionMin = "RESET-DIRTY", 2000, time.Millisecond
	b, err := NewBank(BankConfig{Profile: weak, Params: DefaultParams(), NumRows: 64, RowBytes: 64, RunSeed: 3, Mapper: xorMapper{mask: 1}})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]byte, 64)
	for i := range row {
		row[i] = 0x55
	}
	for _, r := range []int{9, 10, 11} {
		if err := b.WriteRow(r, row, 0); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Duration(0)
	for i := 0; i < 20000 && b.FlipGeneration() == 0; i++ {
		for _, agg := range []int{9, 11} {
			if err := b.Activate(agg, now); err != nil {
				t.Fatal(err)
			}
			now += 36 * time.Nanosecond
			if err := b.Precharge(now); err != nil {
				t.Fatal(err)
			}
			now += 15 * time.Nanosecond
		}
	}
	if b.FlipGeneration() == 0 {
		t.Fatal("hammering never flipped a cell; the bank is not dirty enough")
	}
	if err := b.Refresh(now); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CompareRow(10, now+10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	b.SetTemperature(90)
	if err := b.Activate(20, now); err != nil {
		t.Fatal(err)
	}

	other := validProfile()
	other.Serial, other.WeakCellsPerMech = "RESET-CLEAN", 12
	cfg := BankConfig{Profile: other, Params: DefaultParams(), Index: 2, NumRows: 32, RowBytes: 32, RunSeed: 1}
	if err := b.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewBank(cfg)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(fresh).Elem()
	for i := 0; i < typ.NumField(); i++ {
		switch name := typ.Field(i).Name; name {
		case "gen", "genUsed", "spareRows", "spareBufs":
			// Scratch, reused by design.
		default:
			if got, want := bankField(b, i), bankField(fresh, i); !reflect.DeepEqual(got, want) {
				t.Errorf("after Reset, %s = %#v, want %#v as NewBank leaves it", name, got, want)
			}
		}
	}
	if len(b.spareRows) == 0 || len(b.spareBufs) != 0 {
		t.Errorf("Reset kept %d row states and %d buffers; want the old rows' states and no 64-byte buffer at the new 32-byte width",
			len(b.spareRows), len(b.spareBufs))
	}

	// An invalid configuration changes nothing.
	bad := cfg
	bad.NumRows = 4
	if err := b.Reset(bad); err == nil {
		t.Fatal("Reset accepted a 4-row bank")
	}
	if b.NumRows() != 32 {
		t.Fatalf("a rejected Reset changed the bank to %d rows", b.NumRows())
	}
}
