#include "textflag.h"

// STORE8 stores a 6×8 tile row, Z, at out[off_r + j·cs], j = 0..7: off is
// the byte offset of the row's output offset in the panel's table (R14),
// DI the tile's first channel, R15 the channel stride and SI three of it.
#define STORE8(off, Z, X) \
	MOVQ          off(R14), AX; \
	LEAQ          (DI)(AX*8), AX; \
	VMOVQ         X, (AX); \
	VPEXTRQ       $1, X, (AX)(R15*1); \
	VEXTRACTI64X2 $1, Z, X6; \
	VMOVQ         X6, (AX)(R15*2); \
	VPEXTRQ       $1, X6, (AX)(SI*1); \
	LEAQ          (AX)(R15*4), AX; \
	VEXTRACTI64X2 $2, Z, X6; \
	VMOVQ         X6, (AX); \
	VPEXTRQ       $1, X6, (AX)(R15*1); \
	VEXTRACTI64X2 $3, Z, X6; \
	VMOVQ         X6, (AX)(R15*2); \
	VPEXTRQ       $1, X6, (AX)(SI*1)

// STORE4 is STORE8 for a 6×4 tile row, Y.
#define STORE4(off, Y, X) \
	MOVQ         off(R14), AX; \
	LEAQ         (DI)(AX*8), AX; \
	VMOVQ        X, (AX); \
	VPEXTRQ      $1, X, (AX)(R15*1); \
	VEXTRACTI128 $1, Y, X6; \
	VMOVQ        X6, (AX)(R15*2); \
	VPEXTRQ      $1, X6, (AX)(SI*1)

// KPAIR adds one lane's two k steps into its accumulator: the lane's tap
// p (offset AX) in the low four words, tap p+1 (offset BX) in the high
// four, times strip rows p and p+1 (Z6).
#define KPAIR(R, T, Z) \
	VPBROADCASTQ (R)(AX*8), T; \
	VPBROADCASTQ (R)(BX*8), K1, T; \
	VPMULLQ      Z6, T, T; \
	VPADDQ       T, Z, Z

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

// func ringConvTilesAVX512(out, x []uint64, offs []int, bp []uint64, pos []int, ocg, cs int)
//
// The pack-free conv tile: every panel of one (group, class) of a ConvPlan
// against all of the group's ocg output channels. pos holds 12 words per
// panel, its six lanes' input bases, then their output offsets; lane r's
// tap p is x[base_r + offs[p]], broadcast straight from x, so no A panel
// is packed. bp holds the class's ⌈ocg/4⌉ Kᵀ strips of 4·k words (k =
// len(offs)), and tile element (r, j) is stored at out[off_r + j·cs].
//
// While more than four channels remain, Z0–Z5 hold a 6×8 tile over two
// strips: each k step loads strip s's 4-word row and inserts strip s+1's,
// 4·k words on, as the upper half, then multiplies it by each lane's tap.
// A last single strip pairs k steps instead: its rows p and p+1 are 8
// contiguous words, each lane's register holds tap p in its low half and,
// by a merge-masked broadcast (K1 = 0xF0), tap p+1 in its high half, and
// the halves are added before the store, an odd last step joining on YMM.
// Ring sums are exact in any order, so every tile equals the Go
// microTile's over a packed panel.
//
// A panel past the class's last position repeats that position in its
// dead lanes, which store the same words to the same places. The caller
// has bounds-checked every x word a lane reads and every out word a row
// stores.
TEXT ·ringConvTilesAVX512(SB), NOSPLIT, $400-136
	MOVQ  cs+128(FP), R15
	SHLQ  $3, R15                // channel stride in bytes
	MOVQ  pos_base+96(FP), R14   // this panel's 12 words
	MOVQ  pos_len+104(FP), AX
	LEAQ  (R14)(AX*8), AX
	MOVQ  AX, 384(SP)            // end of the table
	MOVQ  $0xF0, AX
	KMOVB AX, K1
	CMPQ  R14, 384(SP)
	JAE   done

panel:
	MOVQ x_base+24(FP), AX
	MOVQ 0(R14), R8
	LEAQ (AX)(R8*8), R8
	MOVQ 8(R14), R9
	LEAQ (AX)(R9*8), R9
	MOVQ 16(R14), R10
	LEAQ (AX)(R10*8), R10
	MOVQ 24(R14), R11
	LEAQ (AX)(R11*8), R11
	MOVQ 32(R14), R12
	LEAQ (AX)(R12*8), R12
	MOVQ 40(R14), R13
	LEAQ (AX)(R13*8), R13
	MOVQ out_base+0(FP), DI
	MOVQ bp_base+72(FP), DX
	MOVQ ocg+120(FP), AX
	MOVQ AX, 392(SP)             // channels left

strips:
	MOVQ 392(SP), AX
	TESTQ AX, AX
	JLE  nextpanel
	CMPQ AX, $4
	JLE  single

	// Two strips, 6×8 on ZMM.
	MOVQ   offs_len+56(FP), CX
	MOVQ   CX, BX
	SHLQ   $5, BX                // one strip's bytes
	MOVQ   offs_base+48(FP), SI
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	TESTQ  CX, CX
	JZ     pairdone

pairloop:
	MOVQ         (SI), AX
	VMOVDQU      (DX), Y6
	VINSERTI64X4 $1, (DX)(BX*1), Z6, Z6
	VPMULLQ.BCST (R8)(AX*8), Z6, Z7
	VPMULLQ.BCST (R9)(AX*8), Z6, Z8
	VPMULLQ.BCST (R10)(AX*8), Z6, Z9
	VPMULLQ.BCST (R11)(AX*8), Z6, Z10
	VPMULLQ.BCST (R12)(AX*8), Z6, Z11
	VPMULLQ.BCST (R13)(AX*8), Z6, Z12
	VPADDQ       Z7, Z0, Z0
	VPADDQ       Z8, Z1, Z1
	VPADDQ       Z9, Z2, Z2
	VPADDQ       Z10, Z3, Z3
	VPADDQ       Z11, Z4, Z4
	VPADDQ       Z12, Z5, Z5
	ADDQ         $8, SI
	ADDQ         $32, DX
	DECQ         CX
	JNZ          pairloop

pairdone:
	ADDQ BX, DX                  // past the upper strip
	MOVQ 392(SP), CX
	CMPQ CX, $8
	JLT  spill
	LEAQ (R15)(R15*2), SI        // three channels' bytes
	STORE8(48, Z0, X0)
	STORE8(56, Z1, X1)
	STORE8(64, Z2, X2)
	STORE8(72, Z3, X3)
	STORE8(80, Z4, X4)
	STORE8(88, Z5, X5)
	LEAQ (DI)(R15*8), DI
	SUBQ $8, 392(SP)
	JMP  strips

	// One strip, k steps paired.
single:
	MOVQ   offs_base+48(FP), SI
	MOVQ   offs_len+56(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	SHRQ   $1, CX
	JZ     fold

kloop:
	MOVQ      (SI), AX
	MOVQ      8(SI), BX
	VMOVDQU64 (DX), Z6
	KPAIR(R8, Z7, Z0)
	KPAIR(R9, Z8, Z1)
	KPAIR(R10, Z9, Z2)
	KPAIR(R11, Z10, Z3)
	KPAIR(R12, Z11, Z4)
	KPAIR(R13, Z12, Z5)
	ADDQ      $16, SI
	ADDQ      $64, DX
	DECQ      CX
	JNZ       kloop

fold:
	VEXTRACTI64X4 $1, Z0, Y7
	VPADDQ        Y7, Y0, Y0
	VEXTRACTI64X4 $1, Z1, Y7
	VPADDQ        Y7, Y1, Y1
	VEXTRACTI64X4 $1, Z2, Y7
	VPADDQ        Y7, Y2, Y2
	VEXTRACTI64X4 $1, Z3, Y7
	VPADDQ        Y7, Y3, Y3
	VEXTRACTI64X4 $1, Z4, Y7
	VPADDQ        Y7, Y4, Y4
	VEXTRACTI64X4 $1, Z5, Y7
	VPADDQ        Y7, Y5, Y5
	TESTQ         $1, offs_len+56(FP)
	JZ            singledone
	MOVQ          (SI), AX
	VMOVDQU       (DX), Y6
	VPMULLQ.BCST  (R8)(AX*8), Y6, Y7
	VPMULLQ.BCST  (R9)(AX*8), Y6, Y8
	VPMULLQ.BCST  (R10)(AX*8), Y6, Y9
	VPMULLQ.BCST  (R11)(AX*8), Y6, Y10
	VPMULLQ.BCST  (R12)(AX*8), Y6, Y11
	VPMULLQ.BCST  (R13)(AX*8), Y6, Y12
	VPADDQ        Y7, Y0, Y0
	VPADDQ        Y8, Y1, Y1
	VPADDQ        Y9, Y2, Y2
	VPADDQ        Y10, Y3, Y3
	VPADDQ        Y11, Y4, Y4
	VPADDQ        Y12, Y5, Y5

singledone:
	MOVQ 392(SP), CX
	CMPQ CX, $4
	JLT  spill
	LEAQ (R15)(R15*2), SI
	STORE4(48, Y0, X0)
	STORE4(56, Y1, X1)
	STORE4(64, Y2, X2)
	STORE4(72, Y3, X3)
	STORE4(80, Y4, X4)
	STORE4(88, Y5, X5)

nextpanel:
	ADDQ $96, R14
	CMPQ R14, 384(SP)
	JB   panel

done:
	VZEROUPPER
	RET

	// A ragged last strip (pair): spill the tile and store the CX
	// channels left of each row word by word. It ends the panel.
spill:
	VMOVDQU64 Z0, (SP)
	VMOVDQU64 Z1, 64(SP)
	VMOVDQU64 Z2, 128(SP)
	VMOVDQU64 Z3, 192(SP)
	VMOVDQU64 Z4, 256(SP)
	VMOVDQU64 Z5, 320(SP)
	MOVQ      SP, SI
	XORQ      BX, BX

srow:
	MOVQ 48(R14)(BX*8), AX
	LEAQ (DI)(AX*8), R13
	XORQ R12, R12

scol:
	MOVQ (SI)(R12*8), AX
	MOVQ AX, (R13)
	ADDQ R15, R13
	INCQ R12
	CMPQ R12, CX
	JLT  scol
	ADDQ $64, SI
	INCQ BX
	CMPQ BX, $6
	JLT  srow
	JMP  nextpanel

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
