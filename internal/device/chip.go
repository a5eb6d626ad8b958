package device

import (
	"fmt"
)

// DieProfile derives the per-die profile of die idx of a module: the
// serial is extended so sibling dies have distinct weak-cell populations.
func DieProfile(p Profile, idx int) Profile {
	p.Serial = fmt.Sprintf("%s/die%d", p.Serial, idx)
	return p
}

// Chip is one simulated DRAM die with multiple independently accessible
// banks.
type Chip struct {
	banks []*Bank
}

// ChipBanks is a chip's bank count (DDR4 x8 organization).
const ChipBanks = 16

// CheckBank refuses a bank index no chip has.
func CheckBank(i int) error {
	if i < 0 || i >= ChipBanks {
		return fmt.Errorf("device: bank index %d out of range [0,%d)", i, ChipBanks)
	}
	return nil
}

// ChipConfig configures a simulated chip.
type ChipConfig struct {
	Profile Profile
	Params  DisturbParams
	// Index is the chip index within its module; it perturbs the weak
	// cell population seed so sibling dies differ.
	Index int
	// NumRows per bank, default 65536.
	NumRows int
	// RowBytes per row, default 1024.
	RowBytes int
	// RunSeed selects a run-to-run noise realization.
	RunSeed int64
}

// NewChip constructs a chip with lazily materialized banks.
func NewChip(cfg ChipConfig) (*Chip, error) {
	// Each die of a module gets a distinct serial so its weak cells are
	// unique, like real sibling dies.
	prof := DieProfile(cfg.Profile, cfg.Index)
	c := &Chip{banks: make([]*Bank, ChipBanks)}
	for i := range c.banks {
		b, err := NewBank(BankConfig{
			Profile:  prof,
			Params:   cfg.Params,
			Index:    i,
			NumRows:  cfg.NumRows,
			RowBytes: cfg.RowBytes,
			RunSeed:  cfg.RunSeed,
		})
		if err != nil {
			return nil, fmt.Errorf("device: chip %d bank %d: %w", cfg.Index, i, err)
		}
		c.banks[i] = b
	}
	return c, nil
}

// Bank returns bank i.
func (c *Chip) Bank(i int) (*Bank, error) {
	if err := CheckBank(i); err != nil {
		return nil, err
	}
	return c.banks[i], nil
}

// NumBanks returns the bank count.
func (c *Chip) NumBanks() int { return len(c.banks) }
