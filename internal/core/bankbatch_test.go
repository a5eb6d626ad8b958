package core

import (
	"math"
	"math/rand"
	"testing"
)

// randBankDelta draws a non-negative steady delta biased toward the
// decision boundaries of the bulk advance relative to an accumulator
// in the binade of acc: exact half-ulp ties (the round-half-even
// fallback), whole-ulp multiples, deltas under half an ulp (no-ops),
// deltas that exit the binade in one add, subnormals and zeros.
func randBankDelta(r *rand.Rand, acc float64) float64 {
	exp := int(math.Float64bits(acc)>>52&0x7ff) - 1023
	switch r.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Float64frombits(uint64(r.Intn(1<<20)) + 1) // subnormal
	case 2: // exact half-ulp remainder in acc's binade
		s := r.Intn(53) + 1
		q := uint64(r.Int63n(1 << 20))
		return math.Ldexp(float64(q<<uint(s)|1<<uint(s-1)), exp-52-s)
	case 3: // whole number of acc-binade ulps
		return math.Ldexp(float64(r.Int63n(1<<20)+1), exp-52)
	case 4: // under half an ulp: rounds to a no-op every step
		return math.Ldexp(1, exp-54-r.Intn(40))
	case 5: // at or past the binade top: one add exits
		return math.Ldexp(float64(r.Int63n(8)+1), exp+r.Intn(3))
	default:
		e := exp - r.Intn(40)
		if e < -1022 {
			e = -1022
		}
		return math.Float64frombits(uint64(e+1023)<<52 | r.Uint64()&(1<<52-1))
	}
}

// checkBankBatchParity drives one random accumulator/delta-set through
// the float stepper oracle (bankfast_test.go) and the integer stepper
// and requires bit-identical advances, flip iterations and jump
// accumulators.
func checkBankBatchParity(t *testing.T, seed int64, accBits uint64, nDeltas uint8, maxK uint16) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))

	// A non-negative finite accumulator with headroom below the top
	// binades, like every real damage trajectory.
	accBits = accBits&^(1<<63) | 2<<52
	accBits &^= 0x7fd << 52
	acc := math.Float64frombits(accBits)

	n := int(nDeltas%24) + 1
	steady := make([]float64, n)
	for i := range steady {
		steady[i] = randBankDelta(r, acc)
	}
	var bs bankSolve
	if !bs.project(steady) {
		for _, d := range steady {
			if math.IsInf(d, 1) {
				return // legitimately rejected; the engines run it act by act
			}
		}
		t.Fatalf("project rejected an all-finite non-negative row: %v", steady)
	}
	mk := int64(maxK) + 1

	wantNext, wantK := bulkIterations(acc, steady, mk)
	gotNext, gotK, capped := bulkIterationsPre(acc, bs.md, bs.ed, mk)
	if math.Float64bits(wantNext) != math.Float64bits(gotNext) || wantK != gotK {
		t.Fatalf("bulk(acc=%x, mk=%d): float (%x, %d) vs integer (%x, %d)\nsteady=%v",
			acc, mk, math.Float64bits(wantNext), wantK, math.Float64bits(gotNext), gotK, steady)
	}
	if capped {
		// The capped hint's contract: a re-probe from the advanced
		// accumulator would consume nothing.
		if _, k2, _ := bulkIterationsPre(gotNext, bs.md, bs.ed, mk-gotK); k2 != 0 {
			t.Fatalf("capped advance (k=%d) followed by a fruitful re-probe (k=%d)", gotK, k2)
		}
	}

	first := make([]float64, n)
	for i := range first {
		first[i] = randBankDelta(r, 0.5)
	}
	wantIt, wantOK := flipIteration(first, steady, mk)
	gotIt, gotOK := flipIterationPre(first, steady, bs.md, bs.ed, mk)
	if wantIt != gotIt || wantOK != gotOK {
		t.Fatalf("flipIteration(mk=%d): float (%d, %v) vs integer (%d, %v)\nfirst=%v\nsteady=%v",
			mk, wantIt, wantOK, gotIt, gotOK, first, steady)
	}
	for _, iters := range []int64{0, 1, 2, mk / 2, mk} {
		wantAcc := accAfter(first, steady, iters)
		gotAcc := accAfterPre(first, steady, bs.md, bs.ed, iters)
		if math.Float64bits(wantAcc) != math.Float64bits(gotAcc) {
			t.Fatalf("accAfter(%d): float %x vs integer %x\nfirst=%v\nsteady=%v",
				iters, math.Float64bits(wantAcc), math.Float64bits(gotAcc), first, steady)
		}
	}
}

func FuzzBankBatchParity(f *testing.F) {
	f.Add(int64(1), uint64(0x3fe8000000000000), uint8(3), uint16(100))
	f.Add(int64(2), uint64(0x0010000000000000), uint8(1), uint16(1))
	f.Add(int64(3), uint64(0x3ff0000000000000), uint8(23), uint16(65535))
	f.Add(int64(4), uint64(1), uint8(7), uint16(0)) // subnormal-range acc bits
	f.Add(int64(0x5eed), uint64(0x3f50000000000000), uint8(11), uint16(4096))
	f.Fuzz(checkBankBatchParity)
}

// TestBankBatchParity always runs a deterministic slice of the fuzz
// domain, so `go test` alone exercises the integer stepper against the
// float oracle.
func TestBankBatchParity(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 256; i++ {
		checkBankBatchParity(t, r.Int63(), r.Uint64(), uint8(r.Intn(256)), uint16(r.Intn(1<<16)))
	}
}

// TestBankSolveProjectRejects pins the projection's fallback triggers:
// any negative (including -0), NaN or infinite delta rejects the whole
// profile.
func TestBankSolveProjectRejects(t *testing.T) {
	var bs bankSolve
	for _, bad := range []float64{-1, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()} {
		if bs.project([]float64{0.25, bad, 0.5}) {
			t.Errorf("project accepted a row containing %v", bad)
		}
	}
	if !bs.project([]float64{0, 0x1p-1074, 0.5, math.MaxFloat64}) {
		t.Errorf("project rejected a row of finite non-negative deltas")
	}
}
