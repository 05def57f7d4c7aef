#include "textflag.h"

// The ring's elementwise passes on AVX-512 F/DQ: eight uint64 lanes per ZMM
// register, wrapping mod 2⁶⁴ like Go's integer arithmetic, and VPSRAQ,
// which equals Go's int64 >> f for every count. The last block of fewer
// than eight words runs the same instructions under a lane mask in K2, so
// no word is read or written past a slice's end. The Go wrappers have cut
// every operand to dst's length.

// TAILMASK sets K2 to the low CX lanes, 0 < CX < 8.
#define TAILMASK \
	MOVQ  $1, AX; \
	SHLQ  CX, AX; \
	DECQ  AX;     \
	KMOVB AX, K2

// func ringAddVec(dst, a, b []uint64)
TEXT ·ringAddVec(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX

add32:
	CMPQ      CX, $32
	JLT       add8
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPADDQ    (DX), Z0, Z0
	VPADDQ    64(DX), Z1, Z1
	VPADDQ    128(DX), Z2, Z2
	VPADDQ    192(DX), Z3, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ      $256, SI
	ADDQ      $256, DX
	ADDQ      $256, DI
	SUBQ      $32, CX
	JMP       add32

add8:
	CMPQ      CX, $8
	JLT       addtail
	VMOVDQU64 (SI), Z0
	VPADDQ    (DX), Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	SUBQ      $8, CX
	JMP       add8

addtail:
	TESTQ     CX, CX
	JZ        adddone
	TAILMASK
	VMOVDQU64.Z (SI), K2, Z0
	VMOVDQU64.Z (DX), K2, Z1
	VPADDQ    Z1, Z0, Z0
	VMOVDQU64 Z0, K2, (DI)

adddone:
	VZEROUPPER
	RET

// func ringSubVec(dst, a, b []uint64)
TEXT ·ringSubVec(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX

sub32:
	CMPQ      CX, $32
	JLT       sub8
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPSUBQ    (DX), Z0, Z0
	VPSUBQ    64(DX), Z1, Z1
	VPSUBQ    128(DX), Z2, Z2
	VPSUBQ    192(DX), Z3, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ      $256, SI
	ADDQ      $256, DX
	ADDQ      $256, DI
	SUBQ      $32, CX
	JMP       sub32

sub8:
	CMPQ      CX, $8
	JLT       subtail
	VMOVDQU64 (SI), Z0
	VPSUBQ    (DX), Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	SUBQ      $8, CX
	JMP       sub8

subtail:
	TESTQ     CX, CX
	JZ        subdone
	TAILMASK
	VMOVDQU64.Z (SI), K2, Z0
	VMOVDQU64.Z (DX), K2, Z1
	VPSUBQ    Z1, Z0, Z0
	VMOVDQU64 Z0, K2, (DI)

subdone:
	VZEROUPPER
	RET

// func truncAddAVX512(dst, z, bias []uint64, f uint64, neg bool, w *biasLanes)
//
// Per block of eight words: t = dst + z; t >>= f arithmetically, or with
// neg t = −((−t) >> f); then, with a bias, each lane gathers its bias word
// bias[ch] and the lanes' (pos, ch) step one block (see biasLanes). Z20 is
// zero, X14 the shift count, Z16/Z17 the lanes' pos/ch and Z18/Z19/Z21/Z23
// inner, r, q and c broadcast.
TEXT ·truncAddAVX512(SB), NOSPLIT, $0-96
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    z_base+24(FP), SI
	MOVQ    bias_base+48(FP), BX
	MOVQ    bias_len+56(FP), R8
	MOVQ    f+72(FP), AX
	VMOVQ   AX, X14
	MOVBLZX neg+80(FP), DX
	MOVQ    w+88(FP), R9
	VPXORQ  Z20, Z20, Z20
	KXNORB  K2, K2, K2
	TESTQ   R8, R8
	JZ      tloop
	VMOVDQU64    (R9), Z16
	VMOVDQU64    64(R9), Z17
	VPBROADCASTQ 128(R9), Z18
	VPBROADCASTQ 136(R9), Z19
	VPBROADCASTQ 144(R9), Z21
	VPBROADCASTQ 152(R9), Z23
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z24

tloop:
	CMPQ  CX, $8
	JGE   tblock
	TESTQ CX, CX
	JLE   tdone
	TAILMASK

tblock:
	VMOVDQU64.Z (DI), K2, Z0
	VMOVDQU64.Z (SI), K2, Z1
	VPADDQ    Z1, Z0, Z0
	TESTQ     DX, DX
	JNZ       tneg
	VPSRAQ    X14, Z0, Z0
	JMP       tbias

tneg:
	VPSUBQ Z0, Z20, Z0
	VPSRAQ X14, Z0, Z0
	VPSUBQ Z0, Z20, Z0

tbias:
	TESTQ      R8, R8
	JZ         tstore
	KXNORB     K1, K1, K1
	VPGATHERQQ (BX)(Z17*8), K1, Z2
	VPADDQ     Z2, Z0, Z0
	VPADDQ     Z19, Z16, Z16
	VPCMPUQ    $5, Z18, Z16, K3
	VPSUBQ     Z18, Z16, K3, Z16
	VPADDQ     Z21, Z17, Z17
	VPADDQ     Z24, Z17, K3, Z17
	VPCMPUQ    $5, Z23, Z17, K3
	VPSUBQ     Z23, Z17, K3, Z17

tstore:
	VMOVDQU64 Z0, K2, (DI)
	ADDQ      $64, DI
	ADDQ      $64, SI
	SUBQ      $8, CX
	JMP       tloop

tdone:
	VZEROUPPER
	RET

// func ringX2ActVec(dst, mine, theirs, a, z, x []uint64, c *x2Coeffs, neg bool)
//
// Per block of eight words: e = mine + theirs; s = z + 2·e·a, plus e·e with
// neg; s and then c1·s + c2·x are truncated by f (arithmetic shift, or with
// neg the negation's shift negated), and the bias is added. Z20 is zero,
// X14 the shift count and Z25/Z26/Z27 c1, c2 and the bias broadcast.
TEXT ·ringX2ActVec(SB), NOSPLIT, $0-153
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    mine_base+24(FP), R8
	MOVQ    theirs_base+48(FP), R9
	MOVQ    a_base+72(FP), R10
	MOVQ    z_base+96(FP), R11
	MOVQ    x_base+120(FP), R12
	MOVQ    c+144(FP), R13
	MOVBLZX neg+152(FP), DX
	VPBROADCASTQ (R13), Z25
	VPBROADCASTQ 8(R13), Z26
	VPBROADCASTQ 16(R13), Z27
	MOVQ    24(R13), AX
	VMOVQ   AX, X14
	VPXORQ  Z20, Z20, Z20
	KXNORB  K2, K2, K2

xloop:
	CMPQ  CX, $8
	JGE   xblock
	TESTQ CX, CX
	JLE   xdone
	TAILMASK

xblock:
	VMOVDQU64.Z (R8), K2, Z0
	VMOVDQU64.Z (R9), K2, Z1
	VPADDQ    Z1, Z0, Z0
	VMOVDQU64.Z (R10), K2, Z1
	VPMULLQ   Z1, Z0, Z1
	VPADDQ    Z1, Z1, Z1
	VMOVDQU64.Z (R11), K2, Z2
	VPADDQ    Z2, Z1, Z1
	VMOVDQU64.Z (R12), K2, Z3
	VPMULLQ   Z26, Z3, Z3
	TESTQ     DX, DX
	JNZ       xneg
	VPSRAQ    X14, Z1, Z1
	VPMULLQ   Z25, Z1, Z1
	VPADDQ    Z3, Z1, Z1
	VPSRAQ    X14, Z1, Z1
	JMP       xstore

xneg:
	VPMULLQ Z0, Z0, Z0
	VPADDQ  Z0, Z1, Z1
	VPSUBQ  Z1, Z20, Z1
	VPSRAQ  X14, Z1, Z1
	VPSUBQ  Z1, Z20, Z1
	VPMULLQ Z25, Z1, Z1
	VPADDQ  Z3, Z1, Z1
	VPSUBQ  Z1, Z20, Z1
	VPSRAQ  X14, Z1, Z1
	VPSUBQ  Z1, Z20, Z1

xstore:
	VPADDQ    Z27, Z1, Z1
	VMOVDQU64 Z1, K2, (DI)
	ADDQ      $64, DI
	ADDQ      $64, R8
	ADDQ      $64, R9
	ADDQ      $64, R10
	ADDQ      $64, R11
	ADDQ      $64, R12
	SUBQ      $8, CX
	JMP       xloop

xdone:
	VZEROUPPER
	RET
