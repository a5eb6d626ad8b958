package chipdb

import (
	"fmt"
	"math"
)

// Fleet-scale chip synthesis. The 14 Table 2 modules are the only
// calibrated ground truth; a PopulationModel extrapolates them into a
// synthetic fleet of arbitrary size by sampling a base die and
// applying lognormal process / die-to-die perturbations to its
// measured disturbance numbers. The scaled PaperNumbers feed the same
// Profile() inversion as the real inventory, so every synthetic chip
// is a physically consistent device the existing engines can run.
//
// Determinism contract: Derive(i) depends only on (Seed, i) and the
// model's priors — never on which other chips were derived, in what
// order, or on which shard. Any sub-range of the fleet is therefore
// reproducible in isolation, which is what lets dispatch hand chip
// ranges to workers and still merge byte-identical results.

// PopulationModel generates synthetic chips calibrated against the
// Table 2 inventory.
type PopulationModel struct {
	// Seed namespaces the fleet: two models with different seeds
	// produce unrelated chips. The per-chip stream is derived as
	// splitmix64(Seed ⊕ chip index), so chips are pairwise
	// independent.
	Seed int64
	// ProcessSigma is the lognormal sigma of the per-chip process
	// corner, applied to the hammer ACmin columns. The default 0.18
	// reproduces the roughly 2x avg spread Table 2 shows between
	// same-die-revision modules.
	ProcessSigma float64
	// DieToDieSigma is the lognormal sigma of the independent
	// die-to-die perturbation applied to the press columns (press
	// damage is a charge-leakage path mostly decoupled from the
	// hammer corner). Default 0.12.
	DieToDieSigma float64
	// bases caches the Table 2 inventory.
	bases []ModuleInfo
}

// Default population prior sigmas (see PopulationModel field docs).
const (
	DefaultProcessSigma  = 0.18
	DefaultDieToDieSigma = 0.12
)

// NewPopulation returns a model over the full Table 2 inventory with
// the default priors.
func NewPopulation(seed int64) *PopulationModel {
	return &PopulationModel{
		Seed:          seed,
		ProcessSigma:  DefaultProcessSigma,
		DieToDieSigma: DefaultDieToDieSigma,
	}
}

// ChipSample is one synthesized fleet chip.
type ChipSample struct {
	// Index is the chip's fleet index (the Derive argument).
	Index int
	// Base is the Table 2 module the chip was drawn from.
	Base ModuleInfo
	// Info is the synthetic module: Base with perturbed Table 2
	// numbers and a per-chip ID ("S1#0000012345"). Info.Profile works
	// exactly as for inventory modules.
	Info ModuleInfo
	// ProcessScale and PressScale are the applied lognormal factors
	// (useful for reports and tests; both 1.0 means a nominal chip).
	ProcessScale float64
	PressScale   float64
	// RunSeed is the chip's device-level run seed.
	RunSeed int64
}

// GroupKey is the vendor/process bucket fleet reports aggregate by:
// manufacturer plus die label, e.g. "Mfr. S 8Gb D-Die".
func (c ChipSample) GroupKey() string {
	return c.Base.Mfr.String() + " " + c.Base.DieLabel()
}

// splitmix64 is the SplitMix64 mixing function — a bijective avalanche
// mix used to derive independent per-chip random streams from
// (seed, index) without any shared state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chipStream is a tiny deterministic PRNG seeded from (model seed,
// chip index); each call advances a SplitMix64 counter.
type chipStream struct{ state uint64 }

func newChipStream(seed int64, index int) *chipStream {
	return &chipStream{state: splitmix64(uint64(seed)<<1 ^ uint64(index))}
}

func (s *chipStream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float64 returns a uniform value in [0, 1).
func (s *chipStream) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// norm returns a standard normal variate (Box–Muller, one branch kept
// so the stream stays a fixed two-draws-per-variate schedule).
func (s *chipStream) norm() float64 {
	u1 := s.float64()
	u2 := s.float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func (m *PopulationModel) sigmas() (process, die float64) {
	process, die = m.ProcessSigma, m.DieToDieSigma
	if process == 0 {
		process = DefaultProcessSigma
	}
	if die == 0 {
		die = DefaultDieToDieSigma
	}
	return process, die
}

func (m *PopulationModel) baseTable() []ModuleInfo {
	if m.bases == nil {
		m.bases = Modules()
	}
	return m.bases
}

// Derive synthesizes fleet chip i. The result depends only on
// (m.Seed, m.ProcessSigma, m.DieToDieSigma, i).
func (m *PopulationModel) Derive(i int) ChipSample {
	if i < 0 {
		panic(fmt.Sprintf("chipdb: negative chip index %d", i))
	}
	s := newChipStream(m.Seed, i)
	bases := m.baseTable()

	// Base pick is weighted by the inventory's chip counts, so the
	// fleet's vendor mix mirrors the tested population (84 chips).
	pick := int(s.next() % uint64(TotalChips()))
	base := bases[len(bases)-1]
	for _, mi := range bases {
		if pick < mi.NumChips {
			base = mi
			break
		}
		pick -= mi.NumChips
	}

	procSigma, dieSigma := m.sigmas()
	// Lognormal factors; mean-preserving (exp(-sigma^2/2) correction)
	// so the fleet's average stays anchored to Table 2.
	proc := math.Exp(s.norm()*procSigma - procSigma*procSigma/2)
	press := math.Exp(s.norm()*dieSigma - dieSigma*dieSigma/2)
	runSeed := int64(s.next() >> 1)

	info := base
	info.ID = fmt.Sprintf("%s#%010d", base.ID, i)
	scalePaper(&info.Paper, proc, press)

	return ChipSample{
		Index:        i,
		Base:         base,
		Info:         info,
		ProcessScale: proc,
		PressScale:   press,
		RunSeed:      runSeed,
	}
}

// scalePaper applies the process factor to the hammer columns and the
// combined process×die factor to the press and combined columns
// (press damage compounds both corners), times included. No-Bitflip
// cells stay No-Bitflip: the perturbation never invents a flip
// mechanism the base die lacks.
func scalePaper(p *PaperNumbers, proc, press float64) {
	scaleAC(&p.RH, proc)
	scaleTime(&p.TRH, proc)
	pp := proc * press
	for _, c := range []*PaperACmin{&p.RP78, &p.RP702, &p.C78, &p.C702} {
		scaleAC(c, pp)
	}
	for _, t := range []*PaperTime{&p.TRP78, &p.TRP702, &p.TC78, &p.TC702} {
		scaleTime(t, pp)
	}
}

func scaleAC(c *PaperACmin, f float64) {
	if c.NoBitflip() {
		return
	}
	c.Avg *= f
	c.Min *= f
}

func scaleTime(t *PaperTime, f float64) {
	if t.NoBitflip() {
		return
	}
	t.AvgMs *= f
	t.MinMs *= f
}
