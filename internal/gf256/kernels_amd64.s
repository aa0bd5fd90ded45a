//go:build amd64 && !purego

#include "textflag.h"

// Split-nibble GF(2^8) multiply, 32 bytes per step:
//
//	lo = src & 0x0f, hi = (src >> 4) & 0x0f
//	product = VPSHUFB(lowTable, lo) ^ VPSHUFB(highTable, hi)
//
// Y0 = low table in both lanes, Y1 = high table in both lanes, Y2 = 0x0f
// in every byte. The main loop takes 64 bytes; one 32-byte step finishes.
//
// Every vector instruction is VEX-encoded (VMOVQ, not MOVQ, into X2): one
// legacy-SSE instruction while the upper YMM halves are live costs an
// SSE/AVX transition, measured at about 150 ns per call — more than a whole
// 4 KiB tile takes.

#define LOAD_TABLES \
	MOVQ           tbl+0(FP), AX   \
	MOVQ           src_base+8(FP), SI \
	MOVQ           src_len+16(FP), CX \
	MOVQ           dst_base+32(FP), DI \
	VBROADCASTI128 (AX), Y0        \
	VBROADCASTI128 16(AX), Y1      \
	MOVQ           $15, AX         \
	VMOVQ          AX, X2          \
	VPBROADCASTB   X2, Y2

// PRODUCT leaves c·(32 bytes at off(SI)) in lo, using hi as scratch.
#define PRODUCT(off, lo, hi) \
	VMOVDQU off(SI), lo   \
	VPSRLQ  $4, lo, hi    \
	VPAND   Y2, lo, lo    \
	VPAND   Y2, hi, hi    \
	VPSHUFB lo, Y0, lo    \
	VPSHUFB hi, Y1, hi    \
	VPXOR   lo, hi, lo

// func mulAVX2(tbl *[32]byte, src, dst []byte)
TEXT ·mulAVX2(SB), NOSPLIT, $0-56
	LOAD_TABLES
	CMPQ CX, $64
	JB   mul_tail

mul_loop64:
	PRODUCT(0, Y3, Y4)
	PRODUCT(32, Y5, Y6)
	VMOVDQU Y3, (DI)
	VMOVDQU Y5, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     mul_loop64

mul_tail:
	CMPQ CX, $32
	JB   mul_done
	PRODUCT(0, Y3, Y4)
	VMOVDQU Y3, (DI)

mul_done:
	VZEROUPPER
	RET

// func mulAddAVX2(tbl *[32]byte, src, dst []byte)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	LOAD_TABLES
	CMPQ CX, $64
	JB   muladd_tail

muladd_loop64:
	PRODUCT(0, Y3, Y4)
	PRODUCT(32, Y5, Y6)
	VPXOR   (DI), Y3, Y3
	VPXOR   32(DI), Y5, Y5
	VMOVDQU Y3, (DI)
	VMOVDQU Y5, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     muladd_loop64

muladd_tail:
	CMPQ CX, $32
	JB   muladd_done
	PRODUCT(0, Y3, Y4)
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)

muladd_done:
	VZEROUPPER
	RET

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
