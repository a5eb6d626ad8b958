//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 damage kernels. See kernels.go for the per-lane contract.
//
// Bit-exactness notes:
//   - Only VMULPD/VDIVPD/VADDPD are used — no VFMADD*, so every
//     operation rounds individually, exactly like the scalar kernels.
//   - Lanes are cells; the per-cell operation order matches the
//     scalar kernels statement for statement.
//   - n is a multiple of 4 (callers pad to solveLanes = 8), so there
//     is no scalar tail.
//
// Register plan (both kernels):
//   DI=st SI=fi R8=tot R9=ft R10=synS R11=synF R12=ws R13=th R14=tp
//   Y10=boost Y11=se Y12=fe Y13=weakSide Y14=tf
//   BX=byte offset CX=byte length

// func damageSplitAVX2(k *damageKernArgs)
TEXT ·damageSplitAVX2(SB), NOSPLIT, $0-8
	MOVQ k+0(FP), AX
	MOVQ 0(AX), DI            // st
	MOVQ 8(AX), SI            // fi
	MOVQ 16(AX), R8           // tot
	MOVQ 24(AX), R9           // ft
	MOVQ 32(AX), R10          // synS
	MOVQ 40(AX), R11          // synF
	MOVQ 48(AX), R12          // ws
	MOVQ 56(AX), R13          // th
	MOVQ 64(AX), R14          // tp
	VBROADCASTSD 72(AX), Y10  // boost
	VBROADCASTSD 80(AX), Y11  // se
	VBROADCASTSD 88(AX), Y12  // fe
	VBROADCASTSD 96(AX), Y13  // weakSide
	VBROADCASTSD 104(AX), Y14 // tf
	MOVQ 112(AX), CX          // n
	SHLQ $3, CX               // -> bytes
	XORQ BX, BX
	MOVQ 120(AX), DX          // init: store totals instead of accumulating
	TESTQ DX, DX
	JNZ  splitinit

splitloop:
	CMPQ BX, CX
	JGE  splitdone
	VMOVUPD (R10)(BX*1), Y0   // synS
	VMULPD  Y10, Y0, Y0       // hs = boost*synS
	VMOVUPD (R12)(BX*1), Y2   // ws
	VMULPD  Y13, Y2, Y2       // sf = weakSide*ws
	VMOVUPD (R13)(BX*1), Y3   // th
	VMOVUPD (R14)(BX*1), Y4   // tp
	VDIVPD  Y3, Y0, Y0        // hs/th
	VMULPD  Y11, Y2, Y5       // se*sf
	VDIVPD  Y4, Y5, Y5        // (se*sf)/tp
	VADDPD  Y5, Y0, Y0        // hs/th + (se*sf)/tp
	VMULPD  Y14, Y0, Y0       // st = tf*(...)
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD (R8)(BX*1), Y6
	VADDPD  Y0, Y6, Y6        // tot += st
	VMOVUPD Y6, (R8)(BX*1)
	VMOVUPD (R11)(BX*1), Y1   // synF
	VMULPD  Y10, Y1, Y1       // hf = boost*synF
	VDIVPD  Y3, Y1, Y1        // hf/th
	VMULPD  Y12, Y2, Y7       // fe*sf
	VDIVPD  Y4, Y7, Y7        // (fe*sf)/tp
	VADDPD  Y7, Y1, Y1
	VMULPD  Y14, Y1, Y1       // fi = tf*(...)
	VMOVUPD Y1, (SI)(BX*1)
	VMOVUPD (R9)(BX*1), Y8
	VADDPD  Y1, Y8, Y8        // ft += fi
	VMOVUPD Y8, (R9)(BX*1)
	ADDQ $32, BX
	JMP  splitloop

splitinit:
	CMPQ BX, CX
	JGE  splitdone
	VMOVUPD (R10)(BX*1), Y0   // synS
	VMULPD  Y10, Y0, Y0       // hs = boost*synS
	VMOVUPD (R12)(BX*1), Y2   // ws
	VMULPD  Y13, Y2, Y2       // sf = weakSide*ws
	VMOVUPD (R13)(BX*1), Y3   // th
	VMOVUPD (R14)(BX*1), Y4   // tp
	VDIVPD  Y3, Y0, Y0        // hs/th
	VMULPD  Y11, Y2, Y5       // se*sf
	VDIVPD  Y4, Y5, Y5        // (se*sf)/tp
	VADDPD  Y5, Y0, Y0        // hs/th + (se*sf)/tp
	VMULPD  Y14, Y0, Y0       // st = tf*(...)
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y0, (R8)(BX*1)    // tot = st
	VMOVUPD (R11)(BX*1), Y1   // synF
	VMULPD  Y10, Y1, Y1       // hf = boost*synF
	VDIVPD  Y3, Y1, Y1        // hf/th
	VMULPD  Y12, Y2, Y7       // fe*sf
	VDIVPD  Y4, Y7, Y7        // (fe*sf)/tp
	VADDPD  Y7, Y1, Y1
	VMULPD  Y14, Y1, Y1       // fi = tf*(...)
	VMOVUPD Y1, (SI)(BX*1)
	VMOVUPD Y1, (R9)(BX*1)    // ft = fi
	ADDQ $32, BX
	JMP  splitinit

splitdone:
	VZEROUPPER
	RET

// func damageFusedAVX2(k *damageKernArgs)
TEXT ·damageFusedAVX2(SB), NOSPLIT, $0-8
	MOVQ k+0(FP), AX
	MOVQ 0(AX), DI            // st
	MOVQ 16(AX), R8           // tot
	MOVQ 24(AX), R9           // ft
	MOVQ 32(AX), R10          // synS
	MOVQ 48(AX), R12          // ws
	MOVQ 56(AX), R13          // th
	MOVQ 64(AX), R14          // tp
	VBROADCASTSD 72(AX), Y10  // boost
	VBROADCASTSD 80(AX), Y11  // se
	VBROADCASTSD 96(AX), Y13  // weakSide
	VBROADCASTSD 104(AX), Y14 // tf
	MOVQ 112(AX), CX          // n
	SHLQ $3, CX
	XORQ BX, BX
	MOVQ 120(AX), DX          // init
	TESTQ DX, DX
	JNZ  fusedinit

fusedloop:
	CMPQ BX, CX
	JGE  fuseddone
	VMOVUPD (R10)(BX*1), Y0   // synS
	VMULPD  Y10, Y0, Y0       // hs = boost*synS
	VMOVUPD (R12)(BX*1), Y2   // ws
	VMULPD  Y13, Y2, Y2       // sf = weakSide*ws
	VMOVUPD (R13)(BX*1), Y3   // th
	VMOVUPD (R14)(BX*1), Y4   // tp
	VDIVPD  Y3, Y0, Y0        // hs/th
	VMULPD  Y11, Y2, Y5       // se*sf
	VDIVPD  Y4, Y5, Y5        // (se*sf)/tp
	VADDPD  Y5, Y0, Y0
	VMULPD  Y14, Y0, Y0       // st = tf*(...)
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD (R8)(BX*1), Y6
	VADDPD  Y0, Y6, Y6        // tot += st
	VMOVUPD Y6, (R8)(BX*1)
	VMOVUPD (R9)(BX*1), Y8
	VADDPD  Y0, Y8, Y8        // ft += st
	VMOVUPD Y8, (R9)(BX*1)
	ADDQ $32, BX
	JMP  fusedloop

fusedinit:
	CMPQ BX, CX
	JGE  fuseddone
	VMOVUPD (R10)(BX*1), Y0   // synS
	VMULPD  Y10, Y0, Y0       // hs = boost*synS
	VMOVUPD (R12)(BX*1), Y2   // ws
	VMULPD  Y13, Y2, Y2       // sf = weakSide*ws
	VMOVUPD (R13)(BX*1), Y3   // th
	VMOVUPD (R14)(BX*1), Y4   // tp
	VDIVPD  Y3, Y0, Y0        // hs/th
	VMULPD  Y11, Y2, Y5       // se*sf
	VDIVPD  Y4, Y5, Y5        // (se*sf)/tp
	VADDPD  Y5, Y0, Y0
	VMULPD  Y14, Y0, Y0       // st = tf*(...)
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y0, (R8)(BX*1)    // tot = st
	VMOVUPD Y0, (R9)(BX*1)    // ft = st
	ADDQ $32, BX
	JMP  fusedinit

fuseddone:
	VZEROUPPER
	RET
