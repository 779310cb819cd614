/* The 4x64-bit Montgomery kernel shared by every C stub over a BN254
 * field: fp64_stubs.c (field ops, FFT layers, the MSM bucket round) and
 * the curve layer's tower_stubs.c (the pairing's Fp2/Fp6/Fp12 tower).
 *
 * An element is four little-endian uint64 limbs, value < p, Montgomery
 * form (x*R mod p with R = 2^256).  Limbs are read and written with
 * memcpy, so byte offsets need no alignment, and byte-swapped on a
 * big-endian host, so the layout is the same everywhere.
 *
 * Multiplication is CIOS with the interleaved "no-carry" reduction,
 * valid when the modulus is < 2^254 (both BN254 fields are 254-bit);
 * fp64.ml asserts that bound at functor application time.  Addition and
 * subtraction pick their reduced result with a mask instead of a branch:
 * on field elements the choice is a coin flip, and a mispredicted branch
 * cost more than the add.  Every routine reads all of its operands
 * before it writes the result, so the result may alias either operand.
 * Nothing here touches the OCaml heap.
 */

#ifndef ZKDET_MONT4_H
#define ZKDET_MONT4_H

#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#define LIMB_LE(x) __builtin_bswap64(x)
#else
#define LIMB_LE(x) (x)
#endif

static inline uint64_t ld(const unsigned char *p, int i)
{
  uint64_t x;
  memcpy(&x, p + 8 * i, 8);
  return LIMB_LE(x);
}

static inline void st(unsigned char *p, int i, uint64_t x)
{
  x = LIMB_LE(x);
  memcpy(p + 8 * i, &x, 8);
}

/* t = a * b * R^-1 mod p, result < p. Fully unrolled CIOS.  The operands
   may be unreduced up to 2p: then a b < 4p^2 < pR (as 4p < R), so the
   CIOS result stays below 2p and one conditional subtraction reduces it.
   The tower's Karatsuba sums rely on this. */
static inline void mont_mul4(const uint64_t p[4], uint64_t n0, uint64_t t[4],
                             const uint64_t a[4], const uint64_t b[4])
{
  uint64_t r0 = 0, r1 = 0, r2 = 0, r3 = 0;
  for (int i = 0; i < 4; i++) {
    uint64_t ai = a[i];
    u128 acc;
    acc = (u128)r0 + (u128)ai * b[0];
    uint64_t t0 = (uint64_t)acc, c = (uint64_t)(acc >> 64);
    acc = (u128)r1 + (u128)ai * b[1] + c;
    uint64_t t1 = (uint64_t)acc;  c = (uint64_t)(acc >> 64);
    acc = (u128)r2 + (u128)ai * b[2] + c;
    uint64_t t2 = (uint64_t)acc;  c = (uint64_t)(acc >> 64);
    acc = (u128)r3 + (u128)ai * b[3] + c;
    uint64_t t3 = (uint64_t)acc;
    uint64_t t4 = (uint64_t)(acc >> 64);

    uint64_t m = t0 * n0;
    acc = (u128)t0 + (u128)m * p[0];
    c = (uint64_t)(acc >> 64);           /* low word is 0 by construction */
    acc = (u128)t1 + (u128)m * p[1] + c;
    r0 = (uint64_t)acc;  c = (uint64_t)(acc >> 64);
    acc = (u128)t2 + (u128)m * p[2] + c;
    r1 = (uint64_t)acc;  c = (uint64_t)(acc >> 64);
    acc = (u128)t3 + (u128)m * p[3] + c;
    r2 = (uint64_t)acc;  c = (uint64_t)(acc >> 64);
    r3 = t4 + c;                         /* no overflow: p < 2^254 */
  }
  /* Conditional subtract: r < 2p, reduce to < p. */
  uint64_t borrow = 0, s0, s1, s2, s3;
  u128 d;
  d = (u128)r0 - p[0];          s0 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  d = (u128)r1 - p[1] - borrow; s1 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  d = (u128)r2 - p[2] - borrow; s2 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  d = (u128)r3 - p[3] - borrow; s3 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  if (borrow) { /* r < p: keep r */
    t[0] = r0; t[1] = r1; t[2] = r2; t[3] = r3;
  } else {      /* r >= p: keep r - p */
    t[0] = s0; t[1] = s1; t[2] = s2; t[3] = s3;
  }
}

/* t = a + b mod p (operands < p, so the 256-bit sum never carries out). */
static inline void add4(const uint64_t p[4], uint64_t t[4], const uint64_t a[4],
                        const uint64_t b[4])
{
  u128 acc;
  uint64_t r0, r1, r2, r3, c;
  acc = (u128)a[0] + b[0]; r0 = (uint64_t)acc; c = (uint64_t)(acc >> 64);
  acc = (u128)a[1] + b[1] + c; r1 = (uint64_t)acc; c = (uint64_t)(acc >> 64);
  acc = (u128)a[2] + b[2] + c; r2 = (uint64_t)acc; c = (uint64_t)(acc >> 64);
  acc = (u128)a[3] + b[3] + c; r3 = (uint64_t)acc;
  uint64_t borrow = 0, s0, s1, s2, s3;
  u128 d;
  d = (u128)r0 - p[0];                s0 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  d = (u128)r1 - p[1] - borrow;       s1 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  d = (u128)r2 - p[2] - borrow;       s2 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  d = (u128)r3 - p[3] - borrow;       s3 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  uint64_t m = -borrow; /* all ones when r < p: keep r */
  t[0] = (r0 & m) | (s0 & ~m); t[1] = (r1 & m) | (s1 & ~m);
  t[2] = (r2 & m) | (s2 & ~m); t[3] = (r3 & m) | (s3 & ~m);
}

/* t = a - b mod p. */
static inline void sub4(const uint64_t p[4], uint64_t t[4], const uint64_t a[4],
                        const uint64_t b[4])
{
  uint64_t borrow = 0, r0, r1, r2, r3;
  u128 d;
  d = (u128)a[0] - b[0];          r0 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  d = (u128)a[1] - b[1] - borrow; r1 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  d = (u128)a[2] - b[2] - borrow; r2 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  d = (u128)a[3] - b[3] - borrow; r3 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  uint64_t m = -borrow; /* all ones when wrapped: add p back */
  u128 acc;
  uint64_t c;
  acc = (u128)r0 + (p[0] & m); r0 = (uint64_t)acc; c = (uint64_t)(acc >> 64);
  acc = (u128)r1 + (p[1] & m) + c; r1 = (uint64_t)acc; c = (uint64_t)(acc >> 64);
  acc = (u128)r2 + (p[2] & m) + c; r2 = (uint64_t)acc; c = (uint64_t)(acc >> 64);
  acc = (u128)r3 + (p[3] & m) + c; r3 = (uint64_t)acc;
  t[0] = r0; t[1] = r1; t[2] = r2; t[3] = r3;
}

#endif
