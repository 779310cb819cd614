/* The 4x64-bit Montgomery kernel shared by every C stub over a BN254
 * field: fp64_stubs.c (field ops, FFT layers), the curve layer's
 * tower_stubs.c (the pairing's Fp2/Fp6/Fp12 tower) and msm_stubs.c (G1's
 * Pippenger).
 *
 * An element is four little-endian uint64 limbs, value < p, Montgomery
 * form (x*R mod p with R = 2^256).  Limbs are read and written with
 * memcpy, so byte offsets need no alignment, and byte-swapped on a
 * big-endian host, so the layout is the same everywhere.
 *
 * Multiplication is CIOS with the interleaved "no-carry" reduction,
 * valid when the modulus is < 2^254 (both BN254 fields are 254-bit);
 * fp64.ml asserts that bound at functor application time.
 *
 * The code is written for the code generator, not for a target: carries
 * and borrows go through __builtin_add_overflow / __builtin_sub_overflow,
 * which gcc and clang lower to add-with-carry and subtract-with-borrow
 * chains on any 64-bit target, the four CIOS rows are unrolled by hand,
 * and every reduced result is picked with a mask instead of a branch (on
 * field elements the choice is a coin flip, and a mispredicted branch
 * costs more than the add).  No compile flag or CPU dispatch is needed.
 * mont_pow4 is the one field exponentiation of the C stubs (a fixed
 * 4-bit window); the OCaml kernel keeps a square-and-multiply loop as its
 * oracle.
 * Every routine reads all of its operands before it writes the result,
 * so the result may alias either operand.  Nothing here touches the
 * OCaml heap or keeps state.
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

/* a + b + cin (cin in {0, 1}); the carry out goes to *cout. */
static inline uint64_t adc64(uint64_t a, uint64_t b, uint64_t cin,
                             uint64_t *cout)
{
  uint64_t s, t;
  uint64_t c1 = __builtin_add_overflow(a, b, &s);
  uint64_t c2 = __builtin_add_overflow(s, cin, &t);
  *cout = c1 | c2;
  return t;
}

/* a - b - bin (bin in {0, 1}); the borrow out goes to *bout. */
static inline uint64_t sbb64(uint64_t a, uint64_t b, uint64_t bin,
                             uint64_t *bout)
{
  uint64_t d, e;
  uint64_t b1 = __builtin_sub_overflow(a, b, &d);
  uint64_t b2 = __builtin_sub_overflow(d, bin, &e);
  *bout = b1 | b2;
  return e;
}

/* t = r if r < p, else r - p, for r < 2p. */
static inline void reduce_once4(const uint64_t p[4], uint64_t t[4],
                                uint64_t r0, uint64_t r1, uint64_t r2,
                                uint64_t r3)
{
  uint64_t bo, s0, s1, s2, s3;
  s0 = sbb64(r0, p[0], 0, &bo);
  s1 = sbb64(r1, p[1], bo, &bo);
  s2 = sbb64(r2, p[2], bo, &bo);
  s3 = sbb64(r3, p[3], bo, &bo);
  uint64_t m = -bo; /* all ones when r < p: keep r */
  t[0] = (r0 & m) | (s0 & ~m);
  t[1] = (r1 & m) | (s1 & ~m);
  t[2] = (r2 & m) | (s2 & ~m);
  t[3] = (r3 & m) | (s3 & ~m);
}

/* One CIOS row: r <- (r + ai * b + m * p) / 2^64 with m = (r + ai b) n0
   mod 2^64.  The low word of the reduction is zero by construction, and
   the top word cannot overflow because p < 2^254. */
#define MONT4_ROW(ai)                                                       \
  do {                                                                      \
    u128 acc_;                                                              \
    uint64_t c_, t0_, t1_, t2_, t3_, t4_, m_;                               \
    acc_ = (u128)(ai) * b0 + r0;                                            \
    t0_ = (uint64_t)acc_; c_ = (uint64_t)(acc_ >> 64);                      \
    acc_ = (u128)(ai) * b1 + r1 + c_;                                       \
    t1_ = (uint64_t)acc_; c_ = (uint64_t)(acc_ >> 64);                      \
    acc_ = (u128)(ai) * b2 + r2 + c_;                                       \
    t2_ = (uint64_t)acc_; c_ = (uint64_t)(acc_ >> 64);                      \
    acc_ = (u128)(ai) * b3 + r3 + c_;                                       \
    t3_ = (uint64_t)acc_; t4_ = (uint64_t)(acc_ >> 64);                     \
    m_ = t0_ * n0;                                                          \
    acc_ = (u128)m_ * p0 + t0_;                                             \
    c_ = (uint64_t)(acc_ >> 64);                                            \
    acc_ = (u128)m_ * p1 + t1_ + c_;                                        \
    r0 = (uint64_t)acc_; c_ = (uint64_t)(acc_ >> 64);                       \
    acc_ = (u128)m_ * p2 + t2_ + c_;                                        \
    r1 = (uint64_t)acc_; c_ = (uint64_t)(acc_ >> 64);                       \
    acc_ = (u128)m_ * p3 + t3_ + c_;                                        \
    r2 = (uint64_t)acc_; c_ = (uint64_t)(acc_ >> 64);                       \
    r3 = t4_ + c_;                                                          \
  } while (0)

/* t = a * b * R^-1 mod p, result < p.  The operands may be unreduced up
   to 2p: then a b < 4p^2 < pR (as 4p < R), so the CIOS result stays
   below 2p and one conditional subtraction reduces it.  The tower's
   Karatsuba sums rely on this. */
static inline void mont_mul4(const uint64_t p[4], uint64_t n0, uint64_t t[4],
                             const uint64_t a[4], const uint64_t b[4])
{
  const uint64_t p0 = p[0], p1 = p[1], p2 = p[2], p3 = p[3];
  const uint64_t b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3];
  const uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
  uint64_t r0 = 0, r1 = 0, r2 = 0, r3 = 0;
  MONT4_ROW(a0);
  MONT4_ROW(a1);
  MONT4_ROW(a2);
  MONT4_ROW(a3);
  reduce_once4(p, t, r0, r1, r2, r3);
}

#undef MONT4_ROW

/* t = a + b mod p (operands < p < 2^254, so the sum never carries out). */
static inline void add4(const uint64_t p[4], uint64_t t[4], const uint64_t a[4],
                        const uint64_t b[4])
{
  uint64_t c, r0, r1, r2, r3;
  r0 = adc64(a[0], b[0], 0, &c);
  r1 = adc64(a[1], b[1], c, &c);
  r2 = adc64(a[2], b[2], c, &c);
  r3 = adc64(a[3], b[3], c, &c);
  reduce_once4(p, t, r0, r1, r2, r3);
}

/* t = a - b mod p. */
static inline void sub4(const uint64_t p[4], uint64_t t[4], const uint64_t a[4],
                        const uint64_t b[4])
{
  uint64_t bo, c, r0, r1, r2, r3;
  r0 = sbb64(a[0], b[0], 0, &bo);
  r1 = sbb64(a[1], b[1], bo, &bo);
  r2 = sbb64(a[2], b[2], bo, &bo);
  r3 = sbb64(a[3], b[3], bo, &bo);
  uint64_t m = -bo; /* all ones when it wrapped: add p back */
  r0 = adc64(r0, p[0] & m, 0, &c);
  r1 = adc64(r1, p[1] & m, c, &c);
  r2 = adc64(r2, p[2] & m, c, &c);
  r3 = adc64(r3, p[3] & m, c, &c);
  t[0] = r0; t[1] = r1; t[2] = r2; t[3] = r3;
}

/* t = a^e, the exponent e given as ne little-endian 64-bit limbs stored
   as ld() reads them, by a fixed 4-bit window: a table of a^0 .. a^d for
   the largest nibble d of e, then, from the top nonzero nibble down, four
   squarings and one multiplication by the nibble's entry (none for a
   zero nibble).  one is R mod p; e = 0 gives one.  The field's inverse,
   square root, residue test and pow, and the MSM rounds' inverse, are
   each one call. */
static inline void mont_pow4(const uint64_t p[4], uint64_t n0,
                             const uint64_t one[4], uint64_t t[4],
                             const uint64_t a[4], const unsigned char *e,
                             size_t ne)
{
  uint64_t tab[16][4], r[4];
  unsigned dmax = 0;
  long top = -1;
  for (size_t i = 0; i < ne; i++) {
    uint64_t w = ld(e, (int)i);
    for (int k = 0; k < 16; k++) {
      unsigned d = (unsigned)(w >> (4 * k)) & 15;
      if (d > dmax) dmax = d;
      if (d) top = (long)(16 * i + k);
    }
  }
  memcpy(tab[0], one, 32);
  memcpy(tab[1], a, 32);
  for (unsigned d = 2; d <= dmax; d++)
    mont_mul4(p, n0, tab[d], tab[d - 1], a);
  memcpy(r, one, 32);
  for (long i = top; i >= 0; i--) {
    unsigned d = (unsigned)(ld(e, (int)(i >> 4)) >> (4 * (i & 15))) & 15;
    if (i < top) {
      mont_mul4(p, n0, r, r, r);
      mont_mul4(p, n0, r, r, r);
      mont_mul4(p, n0, r, r, r);
      mont_mul4(p, n0, r, r, r);
      if (d) mont_mul4(p, n0, r, r, tab[d]);
    } else {
      memcpy(r, tab[d], 32);
    }
  }
  memcpy(t, r, 32);
}

#endif
