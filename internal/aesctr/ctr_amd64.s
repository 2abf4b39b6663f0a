#include "textflag.h"

// EXPAND derives the next AES-128 round key from the one in X0, leaves
// it in X0 and stores it at off(DI). AESKEYGENASSIST computes
// SubWord(RotWord(w3)) ^ rcon in its top lane, PSHUFD broadcasts it, and
// three shifted XORs give each word the running XOR of the words below
// it, so no load is indexed by a key byte.
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD          $0xff, X1, X1; \
	MOVO            X0, X2; \
	PSLLDQ          $4, X2; \
	PXOR            X2, X0; \
	PSLLDQ          $4, X2; \
	PXOR            X2, X0; \
	PSLLDQ          $4, X2; \
	PXOR            X2, X0; \
	PXOR            X1, X0; \
	MOVOU           X0, off(DI)

// func expandKeyAESNI(rk *[176]byte, key *[16]byte)
TEXT ·expandKeyAESNI(SB), NOSPLIT, $0-16
	MOVQ  rk+0(FP), DI
	MOVQ  key+8(FP), SI
	MOVOU (SI), X0
	MOVOU X0, (DI)
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	RET

// COUNTER builds the next counter block in x and steps the counter. The
// counter is a 128-bit integer, high half in R8 and low half in R9:
// MOVQ and PINSRQ put it in x little-endian, PSHUFB with the mask in
// X13 turns it big-endian, and ADDQ/ADCQ carry across all 128 bits.
#define COUNTER(x) \
	MOVQ   R9, x; \
	PINSRQ $1, R8, x; \
	PSHUFB X13, x; \
	ADDQ   $1, R9; \
	ADCQ   $0, R8

// ROUND8 runs one middle round on the eight blocks in X0-X7 with the
// round key at off(AX).
#define ROUND8(off) \
	MOVOU  off(AX), X8; \
	AESENC X8, X0; \
	AESENC X8, X1; \
	AESENC X8, X2; \
	AESENC X8, X3; \
	AESENC X8, X4; \
	AESENC X8, X5; \
	AESENC X8, X6; \
	AESENC X8, X7

// XOR8 XORs block x's keystream into the source block at off(SI) and
// stores the result at off(DI).
#define XOR8(x, off) \
	MOVOU off(SI), X8; \
	PXOR  X8, x; \
	MOVOU x, off(DI)

// ENC1 encrypts the block in x with the round keys held in X1-X11.
#define ENC1(x) \
	PXOR       X1, x; \
	AESENC     X2, x; \
	AESENC     X3, x; \
	AESENC     X4, x; \
	AESENC     X5, x; \
	AESENC     X6, x; \
	AESENC     X7, x; \
	AESENC     X8, x; \
	AESENC     X9, x; \
	AESENC     X10, x; \
	AESENCLAST X11, x

// func xorKeyStreamAESNI(rk *[176]byte, dst, src []byte, iv *[16]byte)
//
// Sets dst[:len(src)] to src XOR the AES-128-CTR keystream under the
// round keys rk whose first counter block is iv. Whole 128-byte groups
// run eight counter blocks in flight; the rest runs one block at a time,
// with the round keys in registers, and a partial last block goes
// through the 16-byte frame. dst may equal src.
TEXT ·xorKeyStreamAESNI(SB), NOSPLIT, $16-64
	MOVQ   rk+0(FP), AX
	MOVQ   dst_base+8(FP), DI
	MOVQ   src_base+32(FP), SI
	MOVQ   src_len+40(FP), CX
	MOVQ   iv+56(FP), DX
	MOVQ   (DX), R8
	MOVQ   8(DX), R9
	BSWAPQ R8
	BSWAPQ R9
	MOVOU  bswapMask<>(SB), X13
	CMPQ   CX, $128
	JB     blocks

group:
	COUNTER(X0)
	COUNTER(X1)
	COUNTER(X2)
	COUNTER(X3)
	COUNTER(X4)
	COUNTER(X5)
	COUNTER(X6)
	COUNTER(X7)
	MOVOU      (AX), X8
	PXOR       X8, X0
	PXOR       X8, X1
	PXOR       X8, X2
	PXOR       X8, X3
	PXOR       X8, X4
	PXOR       X8, X5
	PXOR       X8, X6
	PXOR       X8, X7
	ROUND8(16)
	ROUND8(32)
	ROUND8(48)
	ROUND8(64)
	ROUND8(80)
	ROUND8(96)
	ROUND8(112)
	ROUND8(128)
	ROUND8(144)
	MOVOU      160(AX), X8
	AESENCLAST X8, X0
	AESENCLAST X8, X1
	AESENCLAST X8, X2
	AESENCLAST X8, X3
	AESENCLAST X8, X4
	AESENCLAST X8, X5
	AESENCLAST X8, X6
	AESENCLAST X8, X7
	XOR8(X0, 0)
	XOR8(X1, 16)
	XOR8(X2, 32)
	XOR8(X3, 48)
	XOR8(X4, 64)
	XOR8(X5, 80)
	XOR8(X6, 96)
	XOR8(X7, 112)
	ADDQ       $128, SI
	ADDQ       $128, DI
	SUBQ       $128, CX
	CMPQ       CX, $128
	JAE        group

blocks:
	TESTQ CX, CX
	JZ    done
	MOVOU (AX), X1
	MOVOU 16(AX), X2
	MOVOU 32(AX), X3
	MOVOU 48(AX), X4
	MOVOU 64(AX), X5
	MOVOU 80(AX), X6
	MOVOU 96(AX), X7
	MOVOU 112(AX), X8
	MOVOU 128(AX), X9
	MOVOU 144(AX), X10
	MOVOU 160(AX), X11
	CMPQ  CX, $16
	JB    tail

block:
	COUNTER(X0)
	ENC1(X0)
	MOVOU (SI), X12
	PXOR  X12, X0
	MOVOU X0, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DI
	SUBQ  $16, CX
	CMPQ  CX, $16
	JAE   block
	TESTQ CX, CX
	JZ    done

tail:
	COUNTER(X0)
	ENC1(X0)
	MOVOU X0, (SP)
	XORQ  BX, BX

tailbyte:
	MOVB (SI)(BX*1), DX
	XORB (SP)(BX*1), DX
	MOVB DX, (DI)(BX*1)
	INCQ BX
	CMPQ BX, CX
	JB   tailbyte

done:
	RET

// bswapMask reverses the 16 bytes of a register.
DATA bswapMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+8(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16
