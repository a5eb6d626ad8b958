package core

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"rowfuse/internal/cpu"
)

// kernelUnderTest names one vector kernel pair the running binary can
// execute; vectorKernelsUnderTest (per-arch test files) enumerates
// them, so each one's bit-exactness stays pinned whichever the
// dispatcher picks.
type kernelUnderTest struct {
	name         string
	split, fused func(*damageKernArgs)
}

// TestDamageKernArgsLayout pins the byte offsets the assembly kernels
// index. A moved field compiles fine in Go and silently reads the
// wrong operand in assembly, so the layout is asserted, not assumed.
func TestDamageKernArgsLayout(t *testing.T) {
	var k damageKernArgs
	for _, f := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"st", unsafe.Offsetof(k.st), 0},
		{"fi", unsafe.Offsetof(k.fi), 8},
		{"tot", unsafe.Offsetof(k.tot), 16},
		{"ft", unsafe.Offsetof(k.ft), 24},
		{"synS", unsafe.Offsetof(k.synS), 32},
		{"synF", unsafe.Offsetof(k.synF), 40},
		{"ws", unsafe.Offsetof(k.ws), 48},
		{"th", unsafe.Offsetof(k.th), 56},
		{"tp", unsafe.Offsetof(k.tp), 64},
		{"boost", unsafe.Offsetof(k.boost), 72},
		{"se", unsafe.Offsetof(k.se), 80},
		{"fe", unsafe.Offsetof(k.fe), 88},
		{"weakSide", unsafe.Offsetof(k.weakSide), 96},
		{"tf", unsafe.Offsetof(k.tf), 104},
		{"n", unsafe.Offsetof(k.n), 112},
		{"init", unsafe.Offsetof(k.init), 120},
	} {
		if f.got != f.want {
			t.Errorf("offsetof(damageKernArgs.%s) = %d, assembly expects %d", f.name, f.got, f.want)
		}
	}
	if s := unsafe.Sizeof(k); s != 128 {
		t.Errorf("sizeof(damageKernArgs) = %d, want 128", s)
	}
}

// kernProblem is one randomized kernel invocation: padded operand rows
// plus independently mutated output copies per implementation.
type kernProblem struct {
	synS, synF, ws, th, tp      []float64
	boost, se, fe, weakSide, tf float64
	n                           int
	init                        bool
}

// positiveKernFloat draws a positive float64 biased toward the values
// the bit-exactness contract calls out: exact ones, powers of two,
// subnormals, the smallest normal, +Inf, and ordinary normals.
func positiveKernFloat(r *rand.Rand) float64 {
	switch r.Intn(12) {
	case 0:
		return 1
	case 1:
		return math.Ldexp(1, r.Intn(120)-60) // exact power of two
	case 2:
		return math.Float64frombits(uint64(r.Intn(1<<30)) + 1) // subnormal
	case 3:
		return 0x1p-1022 // smallest normal
	case 4:
		return math.Inf(1)
	case 5:
		return math.Float64frombits(r.Uint64()&(1<<52-1) | 1<<52) // huge ulp-dense
	default:
		exp := uint64(r.Intn(0x5ff) + 0x100) // well inside the normal range
		return math.Float64frombits(exp<<52 | r.Uint64()&(1<<52-1))
	}
}

// nonNegKernFloat is positiveKernFloat with occasional exact zeros —
// legal for the synergy/side factors and exposures, and the path that
// manufactures NaNs (0 * Inf) whose bits must still agree.
func nonNegKernFloat(r *rand.Rand) float64 {
	if r.Intn(8) == 0 {
		return 0
	}
	return positiveKernFloat(r)
}

func randKernProblem(r *rand.Rand, laneGroups int, init bool) *kernProblem {
	n := laneGroups * solveLanes
	buf := func(gen func(*rand.Rand) float64) []float64 {
		// Allocate one extra lane group filled with values no kernel
		// may read: n is exact, not a minimum.
		s := make([]float64, n+solveLanes)
		for i := range s {
			s[i] = gen(r)
		}
		return s
	}
	return &kernProblem{
		synS: buf(nonNegKernFloat), synF: buf(nonNegKernFloat),
		ws: buf(nonNegKernFloat), th: buf(positiveKernFloat), tp: buf(positiveKernFloat),
		boost: nonNegKernFloat(r), se: nonNegKernFloat(r), fe: nonNegKernFloat(r),
		weakSide: nonNegKernFloat(r), tf: nonNegKernFloat(r),
		n: n, init: init,
	}
}

// outputs is one implementation's private copy of the four output rows,
// pre-seeded identically across implementations so the accumulate mode
// (init = false) starts from the same bits everywhere.
type outputs struct {
	st, fi, tot, ft []float64
}

func (p *kernProblem) newOutputs(r *rand.Rand) *outputs {
	row := func() []float64 {
		s := make([]float64, p.n+solveLanes)
		for i := range s {
			s[i] = nonNegKernFloat(r)
		}
		return s
	}
	return &outputs{st: row(), fi: row(), tot: row(), ft: row()}
}

func (o *outputs) clone() *outputs {
	c := &outputs{}
	c.st = append(c.st, o.st...)
	c.fi = append(c.fi, o.fi...)
	c.tot = append(c.tot, o.tot...)
	c.ft = append(c.ft, o.ft...)
	return c
}

func (p *kernProblem) args(o *outputs) damageKernArgs {
	k := damageKernArgs{
		st: &o.st[0], fi: &o.fi[0], tot: &o.tot[0], ft: &o.ft[0],
		synS: &p.synS[0], synF: &p.synF[0], ws: &p.ws[0],
		th: &p.th[0], tp: &p.tp[0],
		boost: p.boost, se: p.se, fe: p.fe, weakSide: p.weakSide, tf: p.tf,
		n: int64(p.n),
	}
	if p.init {
		k.init = 1
	}
	return k
}

// diffRow returns the first lane where two rows differ bitwise, or -1.
// Bit equality (not ==) so NaN payloads and zero signs count.
func diffRow(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func checkKernelParity(t *testing.T, impl, row string, p *kernProblem, ref, got []float64) {
	t.Helper()
	if i := diffRow(ref, got); i >= 0 {
		t.Errorf("%s %s[%d]: got %x (%v), scalar %x (%v) [n=%d init=%v boost=%x se=%x fe=%x weakSide=%x tf=%x synS=%x synF=%x ws=%x th=%x tp=%x]",
			impl, row, i, math.Float64bits(got[i]), got[i], math.Float64bits(ref[i]), ref[i],
			p.n, p.init, p.boost, p.se, p.fe, p.weakSide, p.tf,
			p.synS[i], p.synF[i], p.ws[i], p.th[i], p.tp[i])
	}
}

// runKernelParity checks every compiled-in vector kernel — and the
// dispatched entry points, whatever they resolved to — against the
// scalar reference on one randomized problem, in both split and fused
// form and in both accumulate and init-store mode.
func runKernelParity(t *testing.T, r *rand.Rand, laneGroups int, init bool) {
	t.Helper()
	p := randKernProblem(r, laneGroups, init)
	base := p.newOutputs(r)

	refSplit := base.clone()
	ks := p.args(refSplit)
	damageSplitScalar(&ks)
	refFused := base.clone()
	kf := p.args(refFused)
	damageFusedScalar(&kf)

	impls := append(vectorKernelsUnderTest(), kernelUnderTest{"dispatched:" + cpu.Level(), damageSplit, damageFused})
	for _, impl := range impls {
		got := base.clone()
		k := p.args(got)
		impl.split(&k)
		checkKernelParity(t, impl.name+"/split", "st", p, refSplit.st, got.st)
		checkKernelParity(t, impl.name+"/split", "fi", p, refSplit.fi, got.fi)
		checkKernelParity(t, impl.name+"/split", "tot", p, refSplit.tot, got.tot)
		checkKernelParity(t, impl.name+"/split", "ft", p, refSplit.ft, got.ft)

		got = base.clone()
		k = p.args(got)
		impl.fused(&k)
		checkKernelParity(t, impl.name+"/fused", "st", p, refFused.st, got.st)
		checkKernelParity(t, impl.name+"/fused", "fi", p, refFused.fi, got.fi) // untouched by contract
		checkKernelParity(t, impl.name+"/fused", "tot", p, refFused.tot, got.tot)
		checkKernelParity(t, impl.name+"/fused", "ft", p, refFused.ft, got.ft)
	}
}

func FuzzDamageKernelParity(f *testing.F) {
	f.Add(int64(1), uint8(1), false)
	f.Add(int64(2), uint8(1), true)
	f.Add(int64(3), uint8(0), false) // n = 0: kernels must not touch memory
	f.Add(int64(4), uint8(3), true)
	f.Add(int64(5), uint8(7), false)
	f.Add(int64(0x5eed), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, laneGroups uint8, init bool) {
		runKernelParity(t, rand.New(rand.NewSource(seed)), int(laneGroups%8), init)
	})
}

// TestDamageKernelParity is the deterministic slice of the fuzz domain
// that always runs: plenty of seeds across sizes and both modes.
func TestDamageKernelParity(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		r := rand.New(rand.NewSource(seed))
		runKernelParity(t, r, int(seed%5), seed%2 == 0)
	}
}

// TestDamageKernelAllocs pins the kernels to zero heap allocations per
// call. The args struct is hoisted like solveBatch hoists its own —
// dispatch through a func variable hides the noescape pragma from the
// compiler, so a per-call struct would escape.
func TestDamageKernelAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := randKernProblem(r, 4, false)
	o := p.newOutputs(r)
	ks := p.args(o)
	kf := p.args(o)
	if n := testing.AllocsPerRun(200, func() {
		damageSplit(&ks)
		damageFused(&kf)
	}); n != 0 {
		t.Fatalf("damage kernels allocate %v times per call, want 0", n)
	}
}
