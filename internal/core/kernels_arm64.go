//go:build arm64 && !purego

package core

import "unsafe"

// The arm64 variants: hand-unrolled 2x2-lane bodies shaped for NEON's
// 128-bit (2 x float64) registers — four independent per-cell chains
// with no cross-lane data flow, so the compiler can keep both FP
// divide pipes busy and every operation still rounds individually
// (the per-cell expression contains no a*b+c shape, so arm64's FMA
// contraction cannot fire inside a lane; see kernels.go for the
// contract). Callers guarantee n is a multiple of solveLanes, so
// there is no scalar tail.

func pickDamageKernels() (split, fused func(*damageKernArgs), level string) {
	return damageSplitNEON, damageFusedNEON, "neon"
}

func damageSplitNEON(k *damageKernArgs) {
	n := int(k.n)
	st, fi := unsafe.Slice(k.st, n), unsafe.Slice(k.fi, n)
	tot, ft := unsafe.Slice(k.tot, n), unsafe.Slice(k.ft, n)
	synS, synF := unsafe.Slice(k.synS, n), unsafe.Slice(k.synF, n)
	ws, th, tp := unsafe.Slice(k.ws, n), unsafe.Slice(k.th, n), unsafe.Slice(k.tp, n)
	boost, se, fe, weakSide, tf := k.boost, k.se, k.fe, k.weakSide, k.tf
	ini := k.init != 0
	for c := 0; c+3 < n; c += 4 {
		hs0, hs1, hs2, hs3 := boost*synS[c], boost*synS[c+1], boost*synS[c+2], boost*synS[c+3]
		hf0, hf1, hf2, hf3 := boost*synF[c], boost*synF[c+1], boost*synF[c+2], boost*synF[c+3]
		sf0, sf1, sf2, sf3 := weakSide*ws[c], weakSide*ws[c+1], weakSide*ws[c+2], weakSide*ws[c+3]
		th0, th1, th2, th3 := th[c], th[c+1], th[c+2], th[c+3]
		tp0, tp1, tp2, tp3 := tp[c], tp[c+1], tp[c+2], tp[c+3]
		st0 := tf * (hs0/th0 + se*sf0/tp0)
		st1 := tf * (hs1/th1 + se*sf1/tp1)
		st2 := tf * (hs2/th2 + se*sf2/tp2)
		st3 := tf * (hs3/th3 + se*sf3/tp3)
		st[c], st[c+1], st[c+2], st[c+3] = st0, st1, st2, st3
		fi0 := tf * (hf0/th0 + fe*sf0/tp0)
		fi1 := tf * (hf1/th1 + fe*sf1/tp1)
		fi2 := tf * (hf2/th2 + fe*sf2/tp2)
		fi3 := tf * (hf3/th3 + fe*sf3/tp3)
		fi[c], fi[c+1], fi[c+2], fi[c+3] = fi0, fi1, fi2, fi3
		if ini {
			tot[c], tot[c+1], tot[c+2], tot[c+3] = st0, st1, st2, st3
			ft[c], ft[c+1], ft[c+2], ft[c+3] = fi0, fi1, fi2, fi3
			continue
		}
		tot[c] += st0
		tot[c+1] += st1
		tot[c+2] += st2
		tot[c+3] += st3
		ft[c] += fi0
		ft[c+1] += fi1
		ft[c+2] += fi2
		ft[c+3] += fi3
	}
}

func damageFusedNEON(k *damageKernArgs) {
	n := int(k.n)
	st := unsafe.Slice(k.st, n)
	tot, ft := unsafe.Slice(k.tot, n), unsafe.Slice(k.ft, n)
	synS := unsafe.Slice(k.synS, n)
	ws, th, tp := unsafe.Slice(k.ws, n), unsafe.Slice(k.th, n), unsafe.Slice(k.tp, n)
	boost, se, weakSide, tf := k.boost, k.se, k.weakSide, k.tf
	ini := k.init != 0
	for c := 0; c+3 < n; c += 4 {
		hs0, hs1, hs2, hs3 := boost*synS[c], boost*synS[c+1], boost*synS[c+2], boost*synS[c+3]
		sf0, sf1, sf2, sf3 := weakSide*ws[c], weakSide*ws[c+1], weakSide*ws[c+2], weakSide*ws[c+3]
		st0 := tf * (hs0/th[c] + se*sf0/tp[c])
		st1 := tf * (hs1/th[c+1] + se*sf1/tp[c+1])
		st2 := tf * (hs2/th[c+2] + se*sf2/tp[c+2])
		st3 := tf * (hs3/th[c+3] + se*sf3/tp[c+3])
		st[c], st[c+1], st[c+2], st[c+3] = st0, st1, st2, st3
		if ini {
			tot[c], tot[c+1], tot[c+2], tot[c+3] = st0, st1, st2, st3
			ft[c], ft[c+1], ft[c+2], ft[c+3] = st0, st1, st2, st3
			continue
		}
		tot[c] += st0
		tot[c+1] += st1
		tot[c+2] += st2
		tot[c+3] += st3
		ft[c] += st0
		ft[c+1] += st1
		ft[c+2] += st2
		ft[c+3] += st3
	}
}
