#include "textflag.h"

// AVX2 kernels behind gemm_amd64.go.  Every lane is an independent
// accumulator; each reduction runs in one lane in ascending order, as a
// rounded VMULPD followed by VADDPD with the accumulator as the first
// source.  No VFMADD: fusing would skip the product's rounding and break
// the bit-identity with the portable kernels.
//
// Column tails (a row length that is not a multiple of 8) go through
// VMASKMOVPD with the masks in Y12/Y13, which neither read nor write the
// masked-off elements.

// tailmask: loading 8 elements at tailmask+8*(8-t) gives t set lanes
// followed by clear ones.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $-1
DATA tailmask<>+40(SB)/8, $-1
DATA tailmask<>+48(SB)/8, $-1
DATA tailmask<>+56(SB)/8, $-1
DATA tailmask<>+64(SB)/8, $0
DATA tailmask<>+72(SB)/8, $0
DATA tailmask<>+80(SB)/8, $0
DATA tailmask<>+88(SB)/8, $0
DATA tailmask<>+96(SB)/8, $0
DATA tailmask<>+104(SB)/8, $0
DATA tailmask<>+112(SB)/8, $0
DATA tailmask<>+120(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $128

// TAILMASK loads the masks for the last n&7 columns of a row of n
// elements into Y12 (columns 0-3) and Y13 (columns 4-7).  Clobbers AX
// and R11.
#define TAILMASK(n) \
	MOVQ n, AX; \
	ANDQ $7, AX; \
	NEGQ AX; \
	ADDQ $8, AX; \
	LEAQ tailmask<>(SB), R11; \
	VMOVUPD (R11)(AX*8), Y12; \
	VMOVUPD 32(R11)(AX*8), Y13

// MULADD2 adds a·Y8 into lo and a·Y9 into hi, with a broadcast from
// memory.  Clobbers Y10 and Y11.
#define MULADD2(a, lo, hi) \
	VBROADCASTSD a, Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, lo, lo; \
	VMULPD Y9, Y10, Y11; \
	VADDPD Y11, hi, hi

// BIASLANE adds w·Y8 into acc, with w broadcast from memory.  Clobbers
// Y9.
#define BIASLANE(w, acc) \
	VBROADCASTSD w, Y9; \
	VMULPD Y8, Y9, Y9; \
	VADDPD Y9, acc, acc

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func biasTile(acc, pack, w []float64, kc, oc, in int)
//
// Outputs are taken eight at a time (Y0-Y7, one output's four rows per
// register), then one at a time.  Y8 holds xᵀ[k] for the four rows.
TEXT ·biasTile(SB), NOSPLIT, $0-96
	MOVQ acc_base+0(FP), DI
	MOVQ pack_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ kc+72(FP), CX
	MOVQ oc+80(FP), BX
	MOVQ in+88(FP), R9
	SHLQ $3, R9                 // w row stride in bytes
	LEAQ (R9)(R9*2), R10        // three w rows

bias8:
	CMPQ BX, $8
	JLT  bias1
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	MOVQ SI, AX                 // xᵀ cursor
	MOVQ DX, R8                 // w[o..o+3][k]
	LEAQ (DX)(R9*4), R11        // w[o+4..o+7][k]
	MOVQ CX, R12

bias8k:
	TESTQ R12, R12
	JZ    bias8store
	VMOVUPD (AX), Y8
	BIASLANE(0(R8), Y0)
	BIASLANE(0(R8)(R9*1), Y1)
	BIASLANE(0(R8)(R9*2), Y2)
	BIASLANE(0(R8)(R10*1), Y3)
	BIASLANE(0(R11), Y4)
	BIASLANE(0(R11)(R9*1), Y5)
	BIASLANE(0(R11)(R9*2), Y6)
	BIASLANE(0(R11)(R10*1), Y7)
	ADDQ $32, AX
	ADDQ $8, R8
	ADDQ $8, R11
	DECQ R12
	JMP  bias8k

bias8store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	LEAQ (DX)(R9*8), DX
	SUBQ $8, BX
	JMP  bias8

bias1:
	TESTQ BX, BX
	JZ    biasdone
	VMOVUPD (DI), Y0
	MOVQ  SI, AX
	MOVQ  DX, R8
	MOVQ  CX, R12

bias1k:
	TESTQ R12, R12
	JZ    bias1store
	VMOVUPD (AX), Y8
	BIASLANE(0(R8), Y0)
	ADDQ $32, AX
	ADDQ $8, R8
	DECQ R12
	JMP  bias1k

bias1store:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ R9, DX
	DECQ BX
	JMP  bias1

biasdone:
	VZEROUPPER
	RET

// func gemmNNTile4(dx, g, w []float64, in, outDim int)
//
// Eight dx columns of four rows live in Y0-Y7 (row j in Y2j, Y2j+1)
// while o runs over every w row.
TEXT ·gemmNNTile4(SB), NOSPLIT, $0-88
	MOVQ dx_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ in+72(FP), R9
	MOVQ outDim+80(FP), R10
	TAILMASK(R9)
	MOVQ R9, R12
	ANDQ $-8, R12
	SHLQ $3, R12                // bytes covered by full 8-column chunks
	SHLQ $3, R9                 // dx and w row stride in bytes
	LEAQ (R9)(R9*2), R13        // three dx rows
	SHLQ $3, R10                // g row stride in bytes
	LEAQ (R10)(R10*2), BX       // three g rows
	XORQ R8, R8                 // column offset in bytes

nn4chunk:
	CMPQ R8, R12
	JGE  nn4tail
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (DX)(R8*1), AX         // w[o][c]
	MOVQ SI, R11                // g[0][o]
	MOVQ outDim+80(FP), CX

nn4o:
	TESTQ CX, CX
	JZ    nn4store
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	MULADD2(0(R11), Y0, Y1)
	MULADD2(0(R11)(R10*1), Y2, Y3)
	MULADD2(0(R11)(R10*2), Y4, Y5)
	MULADD2(0(R11)(BX*1), Y6, Y7)
	ADDQ R9, AX
	ADDQ $8, R11
	DECQ CX
	JMP  nn4o

nn4store:
	LEAQ (DI)(R8*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, (AX)(R9*1)
	VMOVUPD Y3, 32(AX)(R9*1)
	VMOVUPD Y4, (AX)(R9*2)
	VMOVUPD Y5, 32(AX)(R9*2)
	VMOVUPD Y6, (AX)(R13*1)
	VMOVUPD Y7, 32(AX)(R13*1)
	ADDQ $64, R8
	JMP  nn4chunk

nn4tail:
	CMPQ R8, R9
	JGE  nn4done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (DX)(R8*1), AX
	MOVQ SI, R11
	MOVQ outDim+80(FP), CX

nn4tailo:
	TESTQ CX, CX
	JZ    nn4tailstore
	VMASKMOVPD (AX), Y12, Y8
	VMASKMOVPD 32(AX), Y13, Y9
	MULADD2(0(R11), Y0, Y1)
	MULADD2(0(R11)(R10*1), Y2, Y3)
	MULADD2(0(R11)(R10*2), Y4, Y5)
	MULADD2(0(R11)(BX*1), Y6, Y7)
	ADDQ R9, AX
	ADDQ $8, R11
	DECQ CX
	JMP  nn4tailo

nn4tailstore:
	LEAQ (DI)(R8*1), AX
	VMASKMOVPD Y0, Y12, (AX)
	VMASKMOVPD Y1, Y13, 32(AX)
	VMASKMOVPD Y2, Y12, (AX)(R9*1)
	VMASKMOVPD Y3, Y13, 32(AX)(R9*1)
	VMASKMOVPD Y4, Y12, (AX)(R9*2)
	VMASKMOVPD Y5, Y13, 32(AX)(R9*2)
	VMASKMOVPD Y6, Y12, (AX)(R13*1)
	VMASKMOVPD Y7, Y13, 32(AX)(R13*1)

nn4done:
	VZEROUPPER
	RET

// func gemmNNTile1(dx, g, w []float64, in, outDim int)
TEXT ·gemmNNTile1(SB), NOSPLIT, $0-88
	MOVQ dx_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ in+72(FP), R9
	TAILMASK(R9)
	MOVQ R9, R12
	ANDQ $-8, R12
	SHLQ $3, R12
	SHLQ $3, R9
	XORQ R8, R8

nn1chunk:
	CMPQ R8, R12
	JGE  nn1tail
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ (DX)(R8*1), AX
	MOVQ SI, R11
	MOVQ outDim+80(FP), CX

nn1o:
	TESTQ CX, CX
	JZ    nn1store
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	MULADD2(0(R11), Y0, Y1)
	ADDQ R9, AX
	ADDQ $8, R11
	DECQ CX
	JMP  nn1o

nn1store:
	VMOVUPD Y0, (DI)(R8*1)
	VMOVUPD Y1, 32(DI)(R8*1)
	ADDQ $64, R8
	JMP  nn1chunk

nn1tail:
	CMPQ R8, R9
	JGE  nn1done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ (DX)(R8*1), AX
	MOVQ SI, R11
	MOVQ outDim+80(FP), CX

nn1tailo:
	TESTQ CX, CX
	JZ    nn1tailstore
	VMASKMOVPD (AX), Y12, Y8
	VMASKMOVPD 32(AX), Y13, Y9
	MULADD2(0(R11), Y0, Y1)
	ADDQ R9, AX
	ADDQ $8, R11
	DECQ CX
	JMP  nn1tailo

nn1tailstore:
	VMASKMOVPD Y0, Y12, (DI)(R8*1)
	VMASKMOVPD Y1, Y13, 32(DI)(R8*1)

nn1done:
	VZEROUPPER
	RET

// func accumTile(gradW, g, x []float64, rows, in, outDim int)
//
// Eight gradW columns of four outputs live in Y0-Y7 (output j in Y2j,
// Y2j+1) while r runs over the rows; then single outputs in Y0, Y1.
// R11 walks g's column o down the rows and stops at CX, the same column
// one past the last row.
TEXT ·accumTile(SB), NOSPLIT, $0-96
	MOVQ gradW_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ in+80(FP), R9
	TAILMASK(R9)
	MOVQ R9, R12
	ANDQ $-8, R12
	SHLQ $3, R12                // bytes covered by full 8-column chunks
	SHLQ $3, R9                 // gradW and x row stride in bytes
	LEAQ (R9)(R9*2), R13        // three gradW rows
	MOVQ outDim+88(FP), R10
	MOVQ R10, BX                // outputs left
	SHLQ $3, R10                // g row stride in bytes
	MOVQ rows+72(FP), CX
	IMULQ R10, CX
	ADDQ SI, CX

acc4:
	CMPQ BX, $4
	JLT  acc1
	XORQ R8, R8

acc4chunk:
	CMPQ R8, R12
	JGE  acc4tail
	LEAQ (DI)(R8*1), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD (AX)(R9*1), Y2
	VMOVUPD 32(AX)(R9*1), Y3
	VMOVUPD (AX)(R9*2), Y4
	VMOVUPD 32(AX)(R9*2), Y5
	VMOVUPD (AX)(R13*1), Y6
	VMOVUPD 32(AX)(R13*1), Y7
	LEAQ (DX)(R8*1), AX         // x[r][c]
	MOVQ SI, R11                // g[r][o]

acc4r:
	CMPQ R11, CX
	JAE  acc4store
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	MULADD2(0(R11), Y0, Y1)
	MULADD2(8(R11), Y2, Y3)
	MULADD2(16(R11), Y4, Y5)
	MULADD2(24(R11), Y6, Y7)
	ADDQ R9, AX
	ADDQ R10, R11
	JMP  acc4r

acc4store:
	LEAQ (DI)(R8*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, (AX)(R9*1)
	VMOVUPD Y3, 32(AX)(R9*1)
	VMOVUPD Y4, (AX)(R9*2)
	VMOVUPD Y5, 32(AX)(R9*2)
	VMOVUPD Y6, (AX)(R13*1)
	VMOVUPD Y7, 32(AX)(R13*1)
	ADDQ $64, R8
	JMP  acc4chunk

acc4tail:
	CMPQ R8, R9
	JGE  acc4next
	LEAQ (DI)(R8*1), AX
	VMASKMOVPD (AX), Y12, Y0
	VMASKMOVPD 32(AX), Y13, Y1
	VMASKMOVPD (AX)(R9*1), Y12, Y2
	VMASKMOVPD 32(AX)(R9*1), Y13, Y3
	VMASKMOVPD (AX)(R9*2), Y12, Y4
	VMASKMOVPD 32(AX)(R9*2), Y13, Y5
	VMASKMOVPD (AX)(R13*1), Y12, Y6
	VMASKMOVPD 32(AX)(R13*1), Y13, Y7
	LEAQ (DX)(R8*1), AX
	MOVQ SI, R11

acc4tailr:
	CMPQ R11, CX
	JAE  acc4tailstore
	VMASKMOVPD (AX), Y12, Y8
	VMASKMOVPD 32(AX), Y13, Y9
	MULADD2(0(R11), Y0, Y1)
	MULADD2(8(R11), Y2, Y3)
	MULADD2(16(R11), Y4, Y5)
	MULADD2(24(R11), Y6, Y7)
	ADDQ R9, AX
	ADDQ R10, R11
	JMP  acc4tailr

acc4tailstore:
	LEAQ (DI)(R8*1), AX
	VMASKMOVPD Y0, Y12, (AX)
	VMASKMOVPD Y1, Y13, 32(AX)
	VMASKMOVPD Y2, Y12, (AX)(R9*1)
	VMASKMOVPD Y3, Y13, 32(AX)(R9*1)
	VMASKMOVPD Y4, Y12, (AX)(R9*2)
	VMASKMOVPD Y5, Y13, 32(AX)(R9*2)
	VMASKMOVPD Y6, Y12, (AX)(R13*1)
	VMASKMOVPD Y7, Y13, 32(AX)(R13*1)

acc4next:
	LEAQ (DI)(R9*4), DI
	ADDQ $32, SI
	ADDQ $32, CX
	SUBQ $4, BX
	JMP  acc4

acc1:
	TESTQ BX, BX
	JZ    accdone
	XORQ  R8, R8

acc1chunk:
	CMPQ R8, R12
	JGE  acc1tail
	VMOVUPD (DI)(R8*1), Y0
	VMOVUPD 32(DI)(R8*1), Y1
	LEAQ (DX)(R8*1), AX
	MOVQ SI, R11

acc1r:
	CMPQ R11, CX
	JAE  acc1store
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	MULADD2(0(R11), Y0, Y1)
	ADDQ R9, AX
	ADDQ R10, R11
	JMP  acc1r

acc1store:
	VMOVUPD Y0, (DI)(R8*1)
	VMOVUPD Y1, 32(DI)(R8*1)
	ADDQ $64, R8
	JMP  acc1chunk

acc1tail:
	CMPQ R8, R9
	JGE  acc1next
	VMASKMOVPD (DI)(R8*1), Y12, Y0
	VMASKMOVPD 32(DI)(R8*1), Y13, Y1
	LEAQ (DX)(R8*1), AX
	MOVQ SI, R11

acc1tailr:
	CMPQ R11, CX
	JAE  acc1tailstore
	VMASKMOVPD (AX), Y12, Y8
	VMASKMOVPD 32(AX), Y13, Y9
	MULADD2(0(R11), Y0, Y1)
	ADDQ R9, AX
	ADDQ R10, R11
	JMP  acc1tailr

acc1tailstore:
	VMASKMOVPD Y0, Y12, (DI)(R8*1)
	VMASKMOVPD Y1, Y13, 32(DI)(R8*1)

acc1next:
	ADDQ R9, DI
	ADDQ $8, SI
	ADDQ $8, CX
	DECQ BX
	JMP  acc1

accdone:
	VZEROUPPER
	RET
