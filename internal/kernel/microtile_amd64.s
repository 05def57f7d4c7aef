#include "textflag.h"

// func ringTilesAVX512(dst, a, b []uint64, k int, rows *[6]int, cs, mr, n int, acc bool)
//
// The uint64 microkernel, run over every tileN-wide B strip of one A panel:
// strip s holds columns [4s, 4s+4) and starts 4·k words after strip s−1,
// and its tile is stored 4·cs words further along dst. For each strip,
// Y0–Y5 hold the 6×4 tile's rows over the whole k extent: each k step
// loads the strip's 4-word B row once and multiplies it by each A lane
// broadcast from memory (VPMULLQ, AVX-512DQ/VL on YMM), adding the product
// into that lane's row. The ring wraps mod 2⁶⁴, so every tile is exactly
// the Go microTile's. The caller has bounds-checked every index the stores
// touch.
TEXT ·ringTilesAVX512(SB), NOSPLIT, $192-113
	MOVQ    dst_base+0(FP), DI
	MOVQ    b_base+48(FP), DX
	MOVQ    rows+80(FP), R8
	MOVQ    cs+88(FP), R9
	SHLQ    $3, R9                 // column stride in bytes
	LEAQ    (R9)(R9*2), R14        // three columns
	MOVQ    mr+96(FP), R10
	MOVQ    n+104(FP), R15         // columns left
	MOVBLZX acc+112(FP), R12
	TESTQ   R10, R10
	JLE     done
	TESTQ   R15, R15
	JLE     done

strip:
	MOVQ  a_base+24(FP), SI
	MOVQ  k+72(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	TESTQ CX, CX
	JZ    store

loop:
	VMOVDQU      (DX), Y6
	VPMULLQ.BCST (SI), Y6, Y7
	VPMULLQ.BCST 8(SI), Y6, Y8
	VPMULLQ.BCST 16(SI), Y6, Y9
	VPMULLQ.BCST 24(SI), Y6, Y10
	VPMULLQ.BCST 32(SI), Y6, Y11
	VPMULLQ.BCST 40(SI), Y6, Y12
	VPADDQ       Y7, Y0, Y0
	VPADDQ       Y8, Y1, Y1
	VPADDQ       Y9, Y2, Y2
	VPADDQ       Y10, Y3, Y3
	VPADDQ       Y11, Y4, Y4
	VPADDQ       Y12, Y5, Y5
	ADDQ         $48, SI
	ADDQ         $32, DX
	DECQ         CX
	JNZ          loop

	// DX now points at the next strip. Store the mr×nr live corner,
	// nr = min(4, columns left).
store:
	MOVQ    $4, R11
	CMPQ    R15, R11
	CMOVQLT R15, R11
	CMPQ    R11, $4
	JNE     spill
	CMPQ    R9, $8
	JNE     lanes
	TESTQ   R12, R12
	JNZ     rowsacc

	// A 4-wide tile with unit column stride (a row-major GEMM) stores each
	// live row as one vector.
	MOVQ    0(R8), AX
	VMOVDQU Y0, (DI)(AX*8)
	CMPQ    R10, $1
	JLE     next
	MOVQ    8(R8), AX
	VMOVDQU Y1, (DI)(AX*8)
	CMPQ    R10, $2
	JLE     next
	MOVQ    16(R8), AX
	VMOVDQU Y2, (DI)(AX*8)
	CMPQ    R10, $3
	JLE     next
	MOVQ    24(R8), AX
	VMOVDQU Y3, (DI)(AX*8)
	CMPQ    R10, $4
	JLE     next
	MOVQ    32(R8), AX
	VMOVDQU Y4, (DI)(AX*8)
	CMPQ    R10, $5
	JLE     next
	MOVQ    40(R8), AX
	VMOVDQU Y5, (DI)(AX*8)
	JMP     next

rowsacc:
	MOVQ    0(R8), AX
	VPADDQ  (DI)(AX*8), Y0, Y0
	VMOVDQU Y0, (DI)(AX*8)
	CMPQ    R10, $1
	JLE     next
	MOVQ    8(R8), AX
	VPADDQ  (DI)(AX*8), Y1, Y1
	VMOVDQU Y1, (DI)(AX*8)
	CMPQ    R10, $2
	JLE     next
	MOVQ    16(R8), AX
	VPADDQ  (DI)(AX*8), Y2, Y2
	VMOVDQU Y2, (DI)(AX*8)
	CMPQ    R10, $3
	JLE     next
	MOVQ    24(R8), AX
	VPADDQ  (DI)(AX*8), Y3, Y3
	VMOVDQU Y3, (DI)(AX*8)
	CMPQ    R10, $4
	JLE     next
	MOVQ    32(R8), AX
	VPADDQ  (DI)(AX*8), Y4, Y4
	VMOVDQU Y4, (DI)(AX*8)
	CMPQ    R10, $5
	JLE     next
	MOVQ    40(R8), AX
	VPADDQ  (DI)(AX*8), Y5, Y5
	VMOVDQU Y5, (DI)(AX*8)
	JMP     next

	// A 4-wide tile with column stride cs (a conv's NCHW store) writes
	// each live row's lanes to dst[rows[ii]], +cs, +2cs and +3cs.
lanes:
	TESTQ        R12, R12
	JNZ          spill
	MOVQ         0(R8), AX
	LEAQ         (DI)(AX*8), R13
	VMOVQ        X0, (R13)
	VPEXTRQ      $1, X0, (R13)(R9*1)
	VEXTRACTI128 $1, Y0, X6
	VMOVQ        X6, (R13)(R9*2)
	VPEXTRQ      $1, X6, (R13)(R14*1)
	CMPQ         R10, $1
	JLE          next
	MOVQ         8(R8), AX
	LEAQ         (DI)(AX*8), R13
	VMOVQ        X1, (R13)
	VPEXTRQ      $1, X1, (R13)(R9*1)
	VEXTRACTI128 $1, Y1, X6
	VMOVQ        X6, (R13)(R9*2)
	VPEXTRQ      $1, X6, (R13)(R14*1)
	CMPQ         R10, $2
	JLE          next
	MOVQ         16(R8), AX
	LEAQ         (DI)(AX*8), R13
	VMOVQ        X2, (R13)
	VPEXTRQ      $1, X2, (R13)(R9*1)
	VEXTRACTI128 $1, Y2, X6
	VMOVQ        X6, (R13)(R9*2)
	VPEXTRQ      $1, X6, (R13)(R14*1)
	CMPQ         R10, $3
	JLE          next
	MOVQ         24(R8), AX
	LEAQ         (DI)(AX*8), R13
	VMOVQ        X3, (R13)
	VPEXTRQ      $1, X3, (R13)(R9*1)
	VEXTRACTI128 $1, Y3, X6
	VMOVQ        X6, (R13)(R9*2)
	VPEXTRQ      $1, X6, (R13)(R14*1)
	CMPQ         R10, $4
	JLE          next
	MOVQ         32(R8), AX
	LEAQ         (DI)(AX*8), R13
	VMOVQ        X4, (R13)
	VPEXTRQ      $1, X4, (R13)(R9*1)
	VEXTRACTI128 $1, Y4, X6
	VMOVQ        X6, (R13)(R9*2)
	VPEXTRQ      $1, X6, (R13)(R14*1)
	CMPQ         R10, $5
	JLE          next
	MOVQ         40(R8), AX
	LEAQ         (DI)(AX*8), R13
	VMOVQ        X5, (R13)
	VPEXTRQ      $1, X5, (R13)(R9*1)
	VEXTRACTI128 $1, Y5, X6
	VMOVQ        X6, (R13)(R9*2)
	VPEXTRQ      $1, X6, (R13)(R14*1)
	JMP          next

	// Otherwise (a ragged strip, or accumulating at a column stride) spill
	// the tile and store its live corner word by word: element (ii, jj)
	// goes to dst[rows[ii] + jj·cs].
spill:
	VMOVDQU Y0, (SP)
	VMOVDQU Y1, 32(SP)
	VMOVDQU Y2, 64(SP)
	VMOVDQU Y3, 96(SP)
	VMOVDQU Y4, 128(SP)
	VMOVDQU Y5, 160(SP)
	MOVQ    SP, SI
	XORQ    BX, BX

row:
	CMPQ BX, R10
	JGE  next
	MOVQ (R8)(BX*8), AX
	LEAQ (DI)(AX*8), R13
	XORQ CX, CX

col:
	CMPQ  CX, R11
	JGE   nextrow
	MOVQ  (SI)(CX*8), AX
	TESTQ R12, R12
	JZ    put
	ADDQ  (R13), AX

put:
	MOVQ AX, (R13)
	ADDQ R9, R13
	INCQ CX
	JMP  col

nextrow:
	ADDQ $32, SI
	INCQ BX
	JMP  row

next:
	LEAQ (DI)(R9*4), DI
	SUBQ $4, R15
	JG   strip

done:
	VZEROUPPER
	RET

// func ringVecSupported() bool
//
// Reports whether the CPU has AVX2 and AVX-512 F, DQ and VL (CPUID leaf 7
// EBX bits 5, 16, 17 and 31) and the OS saves their state: OSXSAVE (leaf 1
// ECX bit 27) and XCR0's SSE, AVX, opmask and upper-ZMM bits (0xE6).
TEXT ·ringVecSupported(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x80030020, BX
	CMPL BX, $0x80030020
	JNE  no
	MOVB $1, ret+0(FP)

no:
	RET
