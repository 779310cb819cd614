/* The pairing's tower Fp2 / Fp6 / Fp12 over the shared Montgomery kernel
 * (lib/field/mont4.h), for fp12.ml and pairing.ml.
 *
 *   Fp2  = Fp[u]  / (u^2 + 1)
 *   Fp6  = Fp2[v] / (v^3 - xi),  xi = xi0 + u
 *   Fp12 = Fp6[w] / (w^2 - v)
 *
 * An Fp12 value is an Fp buffer of 12 cells (384 bytes) in coefficient
 * order: c0.c0.c0, c0.c0.c1, c0.c1.c0, ..., c1.c2.c1 (Fp12 over Fp6 over
 * Fp2 over Fp), each cell four little-endian limbs in Montgomery form, as
 * Field_intf documents for Fp buffers.  Kernels load their operands into
 * stack structs, compute, and store the result last, so a destination
 * may alias a source.
 *
 * The tower block (fp12.ml, [params]) is the field's 72-byte kernel
 * block (p, n0, R mod p), then xi0 as a little-endian int64, then the
 * Frobenius constants gamma1 = xi^((p-1)/3), gamma2 = gamma1^2 and
 * gamma_w = xi^((p-1)/6), each an Fp2 in two cells.  The pairing's block
 * (pairing.ml) appends 3b' for the twist y^2 = x^3 + b'.  Every constant
 * is derived and checked in OCaml at init; this file transcribes none.
 *
 * All entry points are [@@noalloc] on the OCaml side: nothing here
 * allocates on the OCaml heap, raises or calls back into OCaml, and no
 * kernel keeps static state, so any number of domains may run them at
 * once.  The one inversion (the final exponentiation's easy part) is two
 * calls around the field's own [Fp.inv], as the MSM's bucket round is.
 * The OCaml callers guarantee the shapes: Fp12 values have 12 cells and
 * the cell indices they pass lie inside their buffers.
 */

#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#include "mont4.h"

typedef struct { uint64_t l[4]; } fp;
typedef struct { fp c0, c1; } fp2;
typedef struct { fp2 c0, c1, c2; } fp6;
typedef struct { fp6 c0, c1; } fp12;

/* The field and xi: what every tower operation needs. */
typedef struct {
  uint64_t p[4];
  uint64_t n0;
  uint64_t xi0;
} fld;

enum {
  OFF_XI0 = 72,
  OFF_GAMMA1 = 80,
  OFF_GAMMA2 = OFF_GAMMA1 + 64,
  OFF_GAMMAW = OFF_GAMMA2 + 64,
  OFF_B3 = OFF_GAMMAW + 64 /* pairing block only */
};

static inline const unsigned char *blk(value v)
{
  return (const unsigned char *)String_val(v);
}

static inline void load_fld(value vprm, fld *F)
{
  const unsigned char *b = blk(vprm);
  for (int i = 0; i < 4; i++) F->p[i] = ld(b, i);
  F->n0 = ld(b, 4);
  F->xi0 = ld(b + OFF_XI0, 0);
}

/* Cells are loaded and stored limb by limb (endianness as in mont4.h). */
static inline void ld_fp(const unsigned char *b, fp *x)
{
  for (int i = 0; i < 4; i++) x->l[i] = ld(b, i);
}

static inline void st_fp(unsigned char *b, const fp *x)
{
  for (int i = 0; i < 4; i++) st(b, i, x->l[i]);
}

static inline void ld_fp2(const unsigned char *b, fp2 *x)
{
  ld_fp(b, &x->c0);
  ld_fp(b + 32, &x->c1);
}

static inline void st_fp2(unsigned char *b, const fp2 *x)
{
  st_fp(b, &x->c0);
  st_fp(b + 32, &x->c1);
}

static inline void ld_fp6(const unsigned char *b, fp6 *x)
{
  ld_fp2(b, &x->c0);
  ld_fp2(b + 64, &x->c1);
  ld_fp2(b + 128, &x->c2);
}

static inline void st_fp6(unsigned char *b, const fp6 *x)
{
  st_fp2(b, &x->c0);
  st_fp2(b + 64, &x->c1);
  st_fp2(b + 128, &x->c2);
}

static inline void ld_fp12(value v, fp12 *x)
{
  const unsigned char *b = (const unsigned char *)Bytes_val(v);
  ld_fp6(b, &x->c0);
  ld_fp6(b + 192, &x->c1);
}

static inline void st_fp12(value v, const fp12 *x)
{
  unsigned char *b = (unsigned char *)Bytes_val(v);
  st_fp6(b, &x->c0);
  st_fp6(b + 192, &x->c1);
}

/* Cell [i] of an Fp buffer. */
static inline unsigned char *cell(value v, long i)
{
  return (unsigned char *)Bytes_val(v) + 32 * i;
}

/* ---------------- Fp ---------------- */

static inline void fp_add(const fld *F, fp *r, const fp *a, const fp *b)
{
  add4(F->p, r->l, a->l, b->l);
}

static inline void fp_sub(const fld *F, fp *r, const fp *a, const fp *b)
{
  sub4(F->p, r->l, a->l, b->l);
}

static inline void fp_mul(const fld *F, fp *r, const fp *a, const fp *b)
{
  mont_mul4(F->p, F->n0, r->l, a->l, b->l);
}

/* a + b and a - b + p, both in [0, 2p), without the reduction: only as
   operands of fp_mul, which accepts values below 2p (mont4.h). */
static inline void fp_add_lazy(fp *r, const fp *a, const fp *b)
{
  uint64_t c = 0;
  for (int i = 0; i < 4; i++) {
    u128 s = (u128)a->l[i] + b->l[i] + c;
    r->l[i] = (uint64_t)s;
    c = (uint64_t)(s >> 64);
  }
}

static inline void fp_sub_lazy(const fld *F, fp *r, const fp *a, const fp *b)
{
  uint64_t c = 0, bo = 0;
  for (int i = 0; i < 4; i++) {
    u128 s = (u128)a->l[i] + F->p[i] + c;
    c = (uint64_t)(s >> 64);
    u128 d = (u128)(uint64_t)s - b->l[i] - bo;
    r->l[i] = (uint64_t)d;
    bo = (uint64_t)(d >> 127);
  }
}

/* -a: 0 - a, which is 0 for a = 0 and p - a otherwise. */
static inline void fp_neg(const fld *F, fp *r, const fp *a)
{
  static const fp zero = { { 0, 0, 0, 0 } };
  fp_sub(F, r, &zero, a);
}

/* a / 2: a or a + p, whichever is even, shifted right.  a + p < 2p <
   2^255, so the sum never carries out.  Halving the Montgomery form
   halves the value. */
static inline void fp_half(const fld *F, fp *r, const fp *a)
{
  uint64_t m = -(a->l[0] & 1), c = 0, t[4];
  for (int i = 0; i < 4; i++) {
    u128 s = (u128)a->l[i] + (F->p[i] & m) + c;
    t[i] = (uint64_t)s;
    c = (uint64_t)(s >> 64);
  }
  r->l[0] = (t[0] >> 1) | (t[1] << 63);
  r->l[1] = (t[1] >> 1) | (t[2] << 63);
  r->l[2] = (t[2] >> 1) | (t[3] << 63);
  r->l[3] = t[3] >> 1;
}

/* ---------------- Fp2 ---------------- */

static inline void fp2_add(const fld *F, fp2 *r, const fp2 *a, const fp2 *b)
{
  fp_add(F, &r->c0, &a->c0, &b->c0);
  fp_add(F, &r->c1, &a->c1, &b->c1);
}

static inline void fp2_sub(const fld *F, fp2 *r, const fp2 *a, const fp2 *b)
{
  fp_sub(F, &r->c0, &a->c0, &b->c0);
  fp_sub(F, &r->c1, &a->c1, &b->c1);
}

static inline void fp2_dbl(const fld *F, fp2 *r, const fp2 *a)
{
  fp2_add(F, r, a, a);
}

static inline void fp2_neg(const fld *F, fp2 *r, const fp2 *a)
{
  fp_neg(F, &r->c0, &a->c0);
  fp_neg(F, &r->c1, &a->c1);
}

/* 3a - 2b and 3a + 2b, the cyclotomic squaring's outputs. */
static inline void fp2_3a_minus_2b(const fld *F, fp2 *r, const fp2 *a,
                                   const fp2 *b)
{
  fp2 t;
  fp2_sub(F, &t, a, b);
  fp2_dbl(F, &t, &t);
  fp2_add(F, r, &t, a);
}

static inline void fp2_3a_plus_2b(const fld *F, fp2 *r, const fp2 *a,
                                  const fp2 *b)
{
  fp2 t;
  fp2_add(F, &t, a, b);
  fp2_dbl(F, &t, &t);
  fp2_add(F, r, &t, a);
}

/* Karatsuba: (a0 b0 - a1 b1) + ((a0 + a1)(b0 + b1) - a0 b0 - a1 b1) u. */
static inline void fp2_mul(const fld *F, fp2 *r, const fp2 *a, const fp2 *b)
{
  fp v0, v1, s, t;
  fp_mul(F, &v0, &a->c0, &b->c0);
  fp_mul(F, &v1, &a->c1, &b->c1);
  fp_add_lazy(&s, &a->c0, &a->c1);
  fp_add_lazy(&t, &b->c0, &b->c1);
  fp_mul(F, &s, &s, &t);
  fp_sub(F, &r->c0, &v0, &v1);
  fp_sub(F, &s, &s, &v0);
  fp_sub(F, &r->c1, &s, &v1);
}

/* (a0 + a1)(a0 - a1) + 2 a0 a1 u. */
static inline void fp2_sqr(const fld *F, fp2 *r, const fp2 *a)
{
  fp s, d, m;
  fp_add_lazy(&s, &a->c0, &a->c1);
  fp_sub_lazy(F, &d, &a->c0, &a->c1);
  fp_mul(F, &m, &a->c0, &a->c1);
  fp_mul(F, &r->c0, &s, &d);
  fp_add(F, &r->c1, &m, &m);
}

static inline void fp2_mul_fp(const fld *F, fp2 *r, const fp2 *a, const fp *k)
{
  fp_mul(F, &r->c0, &a->c0, k);
  fp_mul(F, &r->c1, &a->c1, k);
}

/* (xi0 + u)(a0 + a1 u) = (xi0 a0 - a1) + (a0 + xi0 a1) u, with xi0 a0
   and xi0 a1 by doubling and adding from xi0's top bit. */
static inline void fp2_mul_xi(const fld *F, fp2 *r, const fp2 *a)
{
  fp k0 = a->c0, k1 = a->c1, c0;
  uint64_t k = F->xi0;
  for (int i = 62 - __builtin_clzll(k); i >= 0; i--) {
    fp_add(F, &k0, &k0, &k0);
    fp_add(F, &k1, &k1, &k1);
    if ((k >> i) & 1) {
      fp_add(F, &k0, &k0, &a->c0);
      fp_add(F, &k1, &k1, &a->c1);
    }
  }
  fp_sub(F, &c0, &k0, &a->c1);
  fp_add(F, &r->c1, &a->c0, &k1);
  r->c0 = c0;
}

/* x^p = conj x, as p = 3 mod 4. */
static inline void fp2_conj(const fld *F, fp2 *r, const fp2 *a)
{
  r->c0 = a->c0;
  fp_neg(F, &r->c1, &a->c1);
}

/* ---------------- Fp6 ---------------- */

static inline void fp6_add(const fld *F, fp6 *r, const fp6 *a, const fp6 *b)
{
  fp2_add(F, &r->c0, &a->c0, &b->c0);
  fp2_add(F, &r->c1, &a->c1, &b->c1);
  fp2_add(F, &r->c2, &a->c2, &b->c2);
}

static inline void fp6_sub(const fld *F, fp6 *r, const fp6 *a, const fp6 *b)
{
  fp2_sub(F, &r->c0, &a->c0, &b->c0);
  fp2_sub(F, &r->c1, &a->c1, &b->c1);
  fp2_sub(F, &r->c2, &a->c2, &b->c2);
}

static inline void fp6_neg(const fld *F, fp6 *r, const fp6 *a)
{
  fp2_neg(F, &r->c0, &a->c0);
  fp2_neg(F, &r->c1, &a->c1);
  fp2_neg(F, &r->c2, &a->c2);
}

/* (c0 + c1 v + c2 v^2) v = xi c2 + c0 v + c1 v^2. */
static inline void fp6_mul_v(const fld *F, fp6 *r, const fp6 *a)
{
  fp2 t;
  fp2_mul_xi(F, &t, &a->c2);
  r->c2 = a->c1;
  r->c1 = a->c0;
  r->c0 = t;
}

/* Karatsuba over the cubic extension (6 Fp2 multiplications):
   c0 = v0 + xi((a1 + a2)(b1 + b2) - v1 - v2)
   c1 = (a0 + a1)(b0 + b1) - v0 - v1 + xi v2
   c2 = (a0 + a2)(b0 + b2) - v0 - v2 + v1 */
static void fp6_mul(const fld *F, fp6 *r, const fp6 *a, const fp6 *b)
{
  fp2 v0, v1, v2, s, t, c0, c1, c2;
  fp2_mul(F, &v0, &a->c0, &b->c0);
  fp2_mul(F, &v1, &a->c1, &b->c1);
  fp2_mul(F, &v2, &a->c2, &b->c2);

  fp2_add(F, &s, &a->c1, &a->c2);
  fp2_add(F, &t, &b->c1, &b->c2);
  fp2_mul(F, &s, &s, &t);
  fp2_sub(F, &s, &s, &v1);
  fp2_sub(F, &s, &s, &v2);
  fp2_mul_xi(F, &s, &s);
  fp2_add(F, &c0, &v0, &s);

  fp2_add(F, &s, &a->c0, &a->c1);
  fp2_add(F, &t, &b->c0, &b->c1);
  fp2_mul(F, &s, &s, &t);
  fp2_sub(F, &s, &s, &v0);
  fp2_sub(F, &s, &s, &v1);
  fp2_mul_xi(F, &t, &v2);
  fp2_add(F, &c1, &s, &t);

  fp2_add(F, &s, &a->c0, &a->c2);
  fp2_add(F, &t, &b->c0, &b->c2);
  fp2_mul(F, &s, &s, &t);
  fp2_sub(F, &s, &s, &v0);
  fp2_sub(F, &s, &s, &v2);
  fp2_add(F, &c2, &s, &v1);

  r->c0 = c0;
  r->c1 = c1;
  r->c2 = c2;
}

/* Sparse product by b0 + b1 v (5 Fp2 multiplications):
   c0 = a0 b0 + xi(b1 (a1 + a2) - a1 b1)
   c1 = (b0 + b1)(a0 + a1) - a0 b0 - a1 b1
   c2 = a2 b0 + a1 b1 */
static void fp6_mul_by_01(const fld *F, fp6 *r, const fp6 *a, const fp2 *b0,
                          const fp2 *b1)
{
  fp2 v0, v1, s, t, c0, c1, c2;
  fp2_mul(F, &v0, &a->c0, b0);
  fp2_mul(F, &v1, &a->c1, b1);

  fp2_add(F, &s, &a->c1, &a->c2);
  fp2_mul(F, &s, &s, b1);
  fp2_sub(F, &s, &s, &v1);
  fp2_mul_xi(F, &s, &s);
  fp2_add(F, &c0, &v0, &s);

  fp2_add(F, &s, b0, b1);
  fp2_add(F, &t, &a->c0, &a->c1);
  fp2_mul(F, &s, &s, &t);
  fp2_sub(F, &s, &s, &v0);
  fp2_sub(F, &c1, &s, &v1);

  fp2_mul(F, &s, &a->c2, b0);
  fp2_add(F, &c2, &s, &v1);

  r->c0 = c0;
  r->c1 = c1;
  r->c2 = c2;
}

static inline void fp6_mul_fp2(const fld *F, fp6 *r, const fp6 *a,
                               const fp2 *k)
{
  fp2_mul(F, &r->c0, &a->c0, k);
  fp2_mul(F, &r->c1, &a->c1, k);
  fp2_mul(F, &r->c2, &a->c2, k);
}

/* ---------------- Fp12 ---------------- */

/* Karatsuba with w^2 = v: c0 = v0 + v v1, c1 = (a0 + a1)(b0 + b1) - v0 - v1. */
static void fp12_mul(const fld *F, fp12 *r, const fp12 *a, const fp12 *b)
{
  fp6 v0, v1, s, t;
  fp6_mul(F, &v0, &a->c0, &b->c0);
  fp6_mul(F, &v1, &a->c1, &b->c1);
  fp6_add(F, &s, &a->c0, &a->c1);
  fp6_add(F, &t, &b->c0, &b->c1);
  fp6_mul(F, &s, &s, &t);
  fp6_sub(F, &s, &s, &v0);
  fp6_sub(F, &r->c1, &s, &v1);
  fp6_mul_v(F, &v1, &v1);
  fp6_add(F, &r->c0, &v0, &v1);
}

/* Complex squaring, 2 Fp6 multiplications:
   (a0 + a1 w)^2 = (a0 - a1)(a0 - v a1) + (1 + v) a0 a1 + 2 a0 a1 w. */
static void fp12_sqr(const fld *F, fp12 *r, const fp12 *a)
{
  fp6 ab, s, t, vab;
  fp6_mul(F, &ab, &a->c0, &a->c1);
  fp6_sub(F, &s, &a->c0, &a->c1);
  fp6_mul_v(F, &t, &a->c1);
  fp6_sub(F, &t, &a->c0, &t);
  fp6_mul(F, &t, &s, &t);
  fp6_mul_v(F, &vab, &ab);
  fp6_add(F, &t, &t, &ab);
  fp6_add(F, &r->c0, &t, &vab);
  fp6_add(F, &r->c1, &ab, &ab);
}

/* Sparse product by d0 + (d3 + d4 v) w, the shape of a Miller-loop line
   on the D-type twist: 13 Fp2 multiplications instead of 18. */
static void fp12_mul_by_034(const fld *F, fp12 *r, const fp12 *a,
                            const fp2 *d0, const fp2 *d3, const fp2 *d4)
{
  fp6 t0, t1, s;
  fp2 d03;
  fp6_mul_fp2(F, &t0, &a->c0, d0);
  fp6_mul_by_01(F, &t1, &a->c1, d3, d4);
  fp6_add(F, &s, &a->c0, &a->c1);
  fp2_add(F, &d03, d0, d3);
  fp6_mul_by_01(F, &s, &s, &d03, d4);
  fp6_sub(F, &s, &s, &t0);
  fp6_sub(F, &r->c1, &s, &t1);
  fp6_mul_v(F, &t1, &t1);
  fp6_add(F, &r->c0, &t0, &t1);
}

/* The p^6 Frobenius; the inverse on the cyclotomic subgroup. */
static inline void fp12_conj(const fld *F, fp12 *r, const fp12 *a)
{
  r->c0 = a->c0;
  fp6_neg(F, &r->c1, &a->c1);
}

/* x -> x^p: each Fp2 coefficient is conjugated; v^p = gamma1 v,
   (v^2)^p = gamma2 v^2 and w^p = gamma_w w. */
static void fp12_frobenius(const fld *F, const unsigned char *prm, fp12 *r,
                           const fp12 *a)
{
  fp2 g1, g2, gw;
  ld_fp2(prm + OFF_GAMMA1, &g1);
  ld_fp2(prm + OFF_GAMMA2, &g2);
  ld_fp2(prm + OFF_GAMMAW, &gw);
  fp6 c0, c1;
  fp2_conj(F, &c0.c0, &a->c0.c0);
  fp2_conj(F, &c0.c1, &a->c0.c1);
  fp2_mul(F, &c0.c1, &c0.c1, &g1);
  fp2_conj(F, &c0.c2, &a->c0.c2);
  fp2_mul(F, &c0.c2, &c0.c2, &g2);
  fp2_conj(F, &c1.c0, &a->c1.c0);
  fp2_conj(F, &c1.c1, &a->c1.c1);
  fp2_mul(F, &c1.c1, &c1.c1, &g1);
  fp2_conj(F, &c1.c2, &a->c1.c2);
  fp2_mul(F, &c1.c2, &c1.c2, &g2);
  fp6_mul_fp2(F, &c1, &c1, &gw);
  r->c0 = c0;
  r->c1 = c1;
}

/* (x + y w^3)^2 = (x^2 + xi y^2) + 2 x y w^3 over Fp4 = Fp2[y] / (y^2 - xi),
   as (x + y)(xi y + x) - t - xi t and 2t with t = x y. */
static inline void fp4_sqr(const fld *F, fp2 *r0, fp2 *r1, const fp2 *x,
                           const fp2 *y)
{
  fp2 t, s, u;
  fp2_mul(F, &t, x, y);
  fp2_add(F, &s, x, y);
  fp2_mul_xi(F, &u, y);
  fp2_add(F, &u, &u, x);
  fp2_mul(F, &s, &s, &u);
  fp2_sub(F, &s, &s, &t);
  fp2_mul_xi(F, &u, &t);
  fp2_sub(F, r0, &s, &u);
  fp2_dbl(F, r1, &t);
}

/* Granger-Scott squaring, valid only in the cyclotomic subgroup: Fp12 as
   Fp4^3 with y = w^3, three Fp4 squarings. */
static void fp12_cyclotomic_sqr(const fld *F, fp12 *r, const fp12 *a)
{
  const fp2 *r0 = &a->c0.c0, *r4 = &a->c0.c1, *r3 = &a->c0.c2;
  const fp2 *r2 = &a->c1.c0, *r1 = &a->c1.c1, *r5 = &a->c1.c2;
  fp2 t0, t1, t2, t3, t4, t5;
  fp4_sqr(F, &t0, &t1, r0, r1);
  fp4_sqr(F, &t2, &t3, r2, r3);
  fp4_sqr(F, &t4, &t5, r4, r5);
  fp12 o;
  fp2_3a_minus_2b(F, &o.c0.c0, &t0, r0);
  fp2_3a_minus_2b(F, &o.c0.c1, &t2, r4);
  fp2_3a_minus_2b(F, &o.c0.c2, &t4, r3);
  fp2_mul_xi(F, &t5, &t5);
  fp2_3a_plus_2b(F, &o.c1.c0, &t5, r2);
  fp2_3a_plus_2b(F, &o.c1.c1, &t1, r1);
  fp2_3a_plus_2b(F, &o.c1.c2, &t3, r5);
  *r = o;
}

/* ---------------- Fp12 entry points ---------------- */

/* (prm, d, a, b) */
CAMLprim value zkdet_fp12_mul(value vprm, value vd, value va, value vb)
{
  fld F;
  fp12 a, b;
  load_fld(vprm, &F);
  ld_fp12(va, &a);
  ld_fp12(vb, &b);
  fp12_mul(&F, &a, &a, &b);
  st_fp12(vd, &a);
  return Val_unit;
}

/* (prm, d, a) */
CAMLprim value zkdet_fp12_sqr(value vprm, value vd, value va)
{
  fld F;
  fp12 a;
  load_fld(vprm, &F);
  ld_fp12(va, &a);
  fp12_sqr(&F, &a, &a);
  st_fp12(vd, &a);
  return Val_unit;
}

/* (prm, d, a) */
CAMLprim value zkdet_fp12_cyclotomic_sqr(value vprm, value vd, value va)
{
  fld F;
  fp12 a;
  load_fld(vprm, &F);
  ld_fp12(va, &a);
  fp12_cyclotomic_sqr(&F, &a, &a);
  st_fp12(vd, &a);
  return Val_unit;
}

/* (prm, d, a) */
CAMLprim value zkdet_fp12_conj(value vprm, value vd, value va)
{
  fld F;
  fp12 a;
  load_fld(vprm, &F);
  ld_fp12(va, &a);
  fp12_conj(&F, &a, &a);
  st_fp12(vd, &a);
  return Val_unit;
}

/* (prm, d, a, k): d = a^(p^k), k >= 0 applications of the Frobenius. */
CAMLprim value zkdet_fp12_frobenius(value vprm, value vd, value va, value vk)
{
  fld F;
  fp12 a;
  load_fld(vprm, &F);
  ld_fp12(va, &a);
  for (long k = Long_val(vk); k > 0; k--) fp12_frobenius(&F, blk(vprm), &a, &a);
  st_fp12(vd, &a);
  return Val_unit;
}

/* (prm, d, a, line): line holds d0, d3, d4 in cells 0..5. */
CAMLprim value zkdet_fp12_mul_by_034(value vprm, value vd, value va,
                                     value vline)
{
  fld F;
  fp12 a;
  fp2 d0, d3, d4;
  load_fld(vprm, &F);
  ld_fp12(va, &a);
  ld_fp2(cell(vline, 0), &d0);
  ld_fp2(cell(vline, 2), &d3);
  ld_fp2(cell(vline, 4), &d4);
  fp12_mul_by_034(&F, &a, &a, &d0, &d3, &d4);
  st_fp12(vd, &a);
  return Val_unit;
}

/* (prm, d, a, naf): d = a^n for the signed digits naf of n (least
   significant first, top digit 1), with a in the cyclotomic subgroup,
   where squaring is Granger-Scott and conj is the inverse. */
CAMLprim value zkdet_fp12_cyclotomic_exp(value vprm, value vd, value va,
                                         value vnaf)
{
  fld F;
  fp12 a, a_inv, acc;
  load_fld(vprm, &F);
  ld_fp12(va, &a);
  fp12_conj(&F, &a_inv, &a);
  acc = a;
  for (long k = (long)Wosize_val(vnaf) - 2; k >= 0; k--) {
    long d = Long_val(Field(vnaf, k));
    fp12_cyclotomic_sqr(&F, &acc, &acc);
    if (d > 0) fp12_mul(&F, &acc, &acc, &a);
    else if (d < 0) fp12_mul(&F, &acc, &acc, &a_inv);
  }
  st_fp12(vd, &acc);
  return Val_unit;
}

/* The inverse, as two calls around the field inversion:
 *
 *   inv_begin  reduces a = a0 + a1 w to the norm chain: n6 = a0^2 - v a1^2,
 *              its cofactors t0, t1, t2 (scratch cells 0..5), the Fp2
 *              norm n2 = c0 t0 + xi (c2 t1 + c1 t2) (cells 6..7) and the
 *              Fp norm n1 = n2.c0^2 + n2.c1^2 (cell 8);
 *   inv_end    takes 1 / n1 from cell 9 and builds the inverse back up:
 *              1/n2 = conj(n2) / n1, 1/n6 = t / n2, 1/a = (a0 - a1 w) / n6. */

/* (prm, a, scratch) */
CAMLprim value zkdet_fp12_inv_begin(value vprm, value va, value vs)
{
  fld F;
  fp12 a;
  fp6 n6, s;
  fp2 t0, t1, t2, x, y, n2;
  fp n1, z;
  load_fld(vprm, &F);
  ld_fp12(va, &a);
  fp6_mul(&F, &n6, &a.c0, &a.c0);
  fp6_mul(&F, &s, &a.c1, &a.c1);
  fp6_mul_v(&F, &s, &s);
  fp6_sub(&F, &n6, &n6, &s);
  /* t0 = c0^2 - xi c1 c2, t1 = xi c2^2 - c0 c1, t2 = c1^2 - c0 c2 */
  fp2_sqr(&F, &t0, &n6.c0);
  fp2_mul(&F, &x, &n6.c1, &n6.c2);
  fp2_mul_xi(&F, &x, &x);
  fp2_sub(&F, &t0, &t0, &x);
  fp2_sqr(&F, &t1, &n6.c2);
  fp2_mul_xi(&F, &t1, &t1);
  fp2_mul(&F, &x, &n6.c0, &n6.c1);
  fp2_sub(&F, &t1, &t1, &x);
  fp2_sqr(&F, &t2, &n6.c1);
  fp2_mul(&F, &x, &n6.c0, &n6.c2);
  fp2_sub(&F, &t2, &t2, &x);
  fp2_mul(&F, &x, &n6.c2, &t1);
  fp2_mul(&F, &y, &n6.c1, &t2);
  fp2_add(&F, &x, &x, &y);
  fp2_mul_xi(&F, &x, &x);
  fp2_mul(&F, &n2, &n6.c0, &t0);
  fp2_add(&F, &n2, &n2, &x);
  fp_mul(&F, &n1, &n2.c0, &n2.c0);
  fp_mul(&F, &z, &n2.c1, &n2.c1);
  fp_add(&F, &n1, &n1, &z);
  st_fp2(cell(vs, 0), &t0);
  st_fp2(cell(vs, 2), &t1);
  st_fp2(cell(vs, 4), &t2);
  st_fp2(cell(vs, 6), &n2);
  st_fp(cell(vs, 8), &n1);
  return Val_unit;
}

/* (prm, d, a, scratch) */
CAMLprim value zkdet_fp12_inv_end(value vprm, value vd, value va, value vs)
{
  fld F;
  fp12 a;
  fp6 n6inv;
  fp2 t0, t1, t2, n2, n2inv;
  fp n1inv;
  load_fld(vprm, &F);
  ld_fp12(va, &a);
  ld_fp2(cell(vs, 0), &t0);
  ld_fp2(cell(vs, 2), &t1);
  ld_fp2(cell(vs, 4), &t2);
  ld_fp2(cell(vs, 6), &n2);
  ld_fp(cell(vs, 9), &n1inv);
  fp_mul(&F, &n2inv.c0, &n2.c0, &n1inv);
  fp_mul(&F, &n2inv.c1, &n2.c1, &n1inv);
  fp_neg(&F, &n2inv.c1, &n2inv.c1);
  fp2_mul(&F, &n6inv.c0, &t0, &n2inv);
  fp2_mul(&F, &n6inv.c1, &t1, &n2inv);
  fp2_mul(&F, &n6inv.c2, &t2, &n2inv);
  fp6_mul(&F, &a.c0, &a.c0, &n6inv);
  fp6_mul(&F, &a.c1, &a.c1, &n6inv);
  fp6_neg(&F, &a.c1, &a.c1);
  st_fp12(vd, &a);
  return Val_unit;
}

/* ---------------- Miller-loop steps ---------------- */

/* A pair's state is 12 cells of an Fp buffer from cell c: T on the twist
 * in homogeneous projective coordinates (X, Y, Z as Fp2, cells c..c+5),
 * the affine Q it adds (x, y, cells c+6..c+9) and the affine G1 point P
 * (x, y, cells c+10..c+11).  Each step updates T, evaluates its line at P
 * and multiplies the line into the accumulator f with the sparse product.
 * A line is c0 yP + c3 xP w + c4 v w, up to a factor in Fp2 that the
 * final exponentiation kills (Costello-Lange-Naehrig, D-type twist). */

typedef struct { fp2 x, y, z; } proj;

static inline void ld_state(value vst, long c, proj *t, fp *xp, fp *yp)
{
  ld_fp2(cell(vst, c), &t->x);
  ld_fp2(cell(vst, c + 2), &t->y);
  ld_fp2(cell(vst, c + 4), &t->z);
  ld_fp(cell(vst, c + 10), xp);
  ld_fp(cell(vst, c + 11), yp);
}

static inline void st_point(value vst, long c, const proj *t)
{
  st_fp2(cell(vst, c), &t->x);
  st_fp2(cell(vst, c + 2), &t->y);
  st_fp2(cell(vst, c + 4), &t->z);
}

/* f <- f * (c0 yP + c3 xP w + c4 v w) */
static inline void line_into(const fld *F, value vf, const fp2 *c0,
                             const fp2 *c3, const fp2 *c4, const fp *xp,
                             const fp *yp)
{
  fp12 f;
  fp2 d0, d3;
  fp2_mul_fp(F, &d0, c0, yp);
  fp2_mul_fp(F, &d3, c3, xp);
  ld_fp12(vf, &f);
  fp12_mul_by_034(F, &f, &f, &d0, &d3, c4);
  st_fp12(vf, &f);
}

/* (prm, f, st, c): T <- 2T with the tangent line
   (c0, c3, c4) = (-h, 3j, e - b) in the notation below. */
CAMLprim value zkdet_miller_double(value vprm, value vf, value vst, value vc)
{
  fld F;
  proj t;
  fp xp, yp;
  fp2 b3, a, b, c, e, f, g, h, j, e2, s, c0, c3, c4;
  long cl = Long_val(vc);
  load_fld(vprm, &F);
  ld_fp2(blk(vprm) + OFF_B3, &b3);
  ld_state(vst, cl, &t, &xp, &yp);
  fp2_mul(&F, &a, &t.x, &t.y);                 /* a = XY / 2 */
  fp_half(&F, &a.c0, &a.c0);
  fp_half(&F, &a.c1, &a.c1);
  fp2_sqr(&F, &b, &t.y);                       /* b = Y^2 */
  fp2_sqr(&F, &c, &t.z);                       /* c = Z^2 */
  fp2_mul(&F, &e, &b3, &c);                    /* e = 3b' c */
  fp2_dbl(&F, &f, &e);                         /* f = 3e */
  fp2_add(&F, &f, &f, &e);
  fp2_add(&F, &g, &b, &f);                     /* g = (b + f) / 2 */
  fp_half(&F, &g.c0, &g.c0);
  fp_half(&F, &g.c1, &g.c1);
  fp2_add(&F, &h, &t.y, &t.z);                 /* h = (Y + Z)^2 - (b + c) */
  fp2_sqr(&F, &h, &h);
  fp2_add(&F, &s, &b, &c);
  fp2_sub(&F, &h, &h, &s);
  fp2_sqr(&F, &j, &t.x);                       /* j = X^2 */
  fp2_sqr(&F, &e2, &e);                        /* e2 = e^2 */
  fp2_sub(&F, &s, &b, &f);                     /* X' = a (b - f) */
  fp2_mul(&F, &t.x, &a, &s);
  fp2_sqr(&F, &t.y, &g);                       /* Y' = g^2 - 3 e2 */
  fp2_dbl(&F, &s, &e2);
  fp2_add(&F, &s, &s, &e2);
  fp2_sub(&F, &t.y, &t.y, &s);
  fp2_mul(&F, &t.z, &b, &h);                   /* Z' = b h */
  fp2_neg(&F, &c0, &h);
  fp2_dbl(&F, &c3, &j);
  fp2_add(&F, &c3, &c3, &j);
  fp2_sub(&F, &c4, &e, &b);
  st_point(vst, cl, &t);
  line_into(&F, vf, &c0, &c3, &c4, &xp, &yp);
  return Val_unit;
}

/* (prm, f, st, c, neg): T <- T + Q, or T - Q when neg, with the chord
   (c0, c3, c4) = (lambda, -theta, theta xQ - lambda yQ). */
CAMLprim value zkdet_miller_add(value vprm, value vf, value vst, value vc,
                                value vneg)
{
  fld F;
  proj t;
  fp xp, yp;
  fp2 xq, yq, theta, lambda, c, d, e, f, g, h, s, c3, c4;
  long cl = Long_val(vc);
  load_fld(vprm, &F);
  ld_state(vst, cl, &t, &xp, &yp);
  ld_fp2(cell(vst, cl + 6), &xq);
  ld_fp2(cell(vst, cl + 8), &yq);
  if (Bool_val(vneg)) fp2_neg(&F, &yq, &yq);
  fp2_mul(&F, &s, &yq, &t.z);                  /* theta = Y - yQ Z */
  fp2_sub(&F, &theta, &t.y, &s);
  fp2_mul(&F, &s, &xq, &t.z);                  /* lambda = X - xQ Z */
  fp2_sub(&F, &lambda, &t.x, &s);
  fp2_sqr(&F, &c, &theta);
  fp2_sqr(&F, &d, &lambda);
  fp2_mul(&F, &e, &lambda, &d);
  fp2_mul(&F, &f, &t.z, &c);
  fp2_mul(&F, &g, &t.x, &d);
  fp2_add(&F, &h, &e, &f);                     /* h = e + f - 2g */
  fp2_dbl(&F, &s, &g);
  fp2_sub(&F, &h, &h, &s);
  fp2_mul(&F, &t.x, &lambda, &h);              /* X' = lambda h */
  fp2_sub(&F, &s, &g, &h);                     /* Y' = theta (g - h) - e Y */
  fp2_mul(&F, &s, &theta, &s);
  fp2_mul(&F, &g, &e, &t.y);
  fp2_sub(&F, &t.y, &s, &g);
  fp2_mul(&F, &t.z, &t.z, &e);                 /* Z' = Z e */
  fp2_neg(&F, &c3, &theta);
  fp2_mul(&F, &c4, &theta, &xq);
  fp2_mul(&F, &s, &lambda, &yq);
  fp2_sub(&F, &c4, &c4, &s);
  st_point(vst, cl, &t);
  line_into(&F, vf, &lambda, &c3, &c4, &xp, &yp);
  return Val_unit;
}
