/* Unrolled 4x64-bit Montgomery field kernels for Fp64 (fp64.ml).
 *
 * Elements are 32-byte slices of an OCaml Bytes value: 4 little-endian
 * uint64 limbs, value < p, Montgomery form (x*R mod p with R = 2^256).
 * OCaml Bytes data is word-aligned and offsets are multiples of 32, so
 * uint64_t loads/stores at (base + offset) are aligned.  Limbs are read
 * with unaligned-safe memcpy anyway to keep the stubs strictly portable.
 *
 * The parameter block prm is a 40-byte Bytes: p[0..3] then n0 = -p^-1
 * mod 2^64.  All entry points are [@@noalloc] on the OCaml side: nothing
 * here touches the OCaml heap or runtime.
 *
 * Multiplication is CIOS with the interleaved "no-carry" reduction, valid
 * when the modulus is < 2^254 (both BN254 fields are 254-bit); the OCaml
 * side asserts that bound at functor application time.
 */

#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

static inline uint64_t ld(const unsigned char *p, int i)
{
  uint64_t x;
  memcpy(&x, p + 8 * i, 8);
  return x;
}

static inline void st(unsigned char *p, int i, uint64_t x)
{
  memcpy(p + 8 * i, &x, 8);
}

/* t = a * b * R^-1 mod p, result < p. Fully unrolled CIOS. */
static void mont_mul4(const uint64_t p[4], uint64_t n0, uint64_t t[4],
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
static void add4(const uint64_t p[4], uint64_t t[4], const uint64_t a[4],
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
  if (borrow) {
    t[0] = r0; t[1] = r1; t[2] = r2; t[3] = r3;
  } else {
    t[0] = s0; t[1] = s1; t[2] = s2; t[3] = s3;
  }
}

/* t = a - b mod p. */
static void sub4(const uint64_t p[4], uint64_t t[4], const uint64_t a[4],
                 const uint64_t b[4])
{
  uint64_t borrow = 0, r0, r1, r2, r3;
  u128 d;
  d = (u128)a[0] - b[0];          r0 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  d = (u128)a[1] - b[1] - borrow; r1 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  d = (u128)a[2] - b[2] - borrow; r2 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  d = (u128)a[3] - b[3] - borrow; r3 = (uint64_t)d; borrow = (uint64_t)(d >> 127);
  if (borrow) { /* wrapped: add p back */
    u128 acc;
    uint64_t c;
    acc = (u128)r0 + p[0]; r0 = (uint64_t)acc; c = (uint64_t)(acc >> 64);
    acc = (u128)r1 + p[1] + c; r1 = (uint64_t)acc; c = (uint64_t)(acc >> 64);
    acc = (u128)r2 + p[2] + c; r2 = (uint64_t)acc; c = (uint64_t)(acc >> 64);
    acc = (u128)r3 + p[3] + c; r3 = (uint64_t)acc;
  }
  t[0] = r0; t[1] = r1; t[2] = r2; t[3] = r3;
}

static void load_prm(value vprm, uint64_t p[4], uint64_t *n0)
{
  const unsigned char *prm = (const unsigned char *)Bytes_val(vprm);
  p[0] = ld(prm, 0); p[1] = ld(prm, 1); p[2] = ld(prm, 2); p[3] = ld(prm, 3);
  *n0 = ld(prm, 4);
}

static void load_el(value vb, value voff, uint64_t x[4])
{
  const unsigned char *b = (const unsigned char *)Bytes_val(vb) + Long_val(voff);
  x[0] = ld(b, 0); x[1] = ld(b, 1); x[2] = ld(b, 2); x[3] = ld(b, 3);
}

static void store_el(value vb, value voff, const uint64_t x[4])
{
  unsigned char *b = (unsigned char *)Bytes_val(vb) + Long_val(voff);
  st(b, 0, x[0]); st(b, 1, x[1]); st(b, 2, x[2]); st(b, 3, x[3]);
}

/* (prm, dst, doff, a, aoff, b, boff) — offsets are byte offsets. */
CAMLprim value zkdet_fp64_mul(value vprm, value vdst, value vdoff, value va,
                              value vaoff, value vb, value vboff)
{
  uint64_t p[4], n0, a[4], b[4], t[4];
  load_prm(vprm, p, &n0);
  load_el(va, vaoff, a);
  load_el(vb, vboff, b);
  mont_mul4(p, n0, t, a, b);
  store_el(vdst, vdoff, t);
  return Val_unit;
}

CAMLprim value zkdet_fp64_mul_bc(value *argv, int argn)
{
  (void)argn;
  return zkdet_fp64_mul(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6]);
}

CAMLprim value zkdet_fp64_add(value vprm, value vdst, value vdoff, value va,
                              value vaoff, value vb, value vboff)
{
  uint64_t p[4], n0, a[4], b[4], t[4];
  load_prm(vprm, p, &n0);
  load_el(va, vaoff, a);
  load_el(vb, vboff, b);
  add4(p, t, a, b);
  store_el(vdst, vdoff, t);
  return Val_unit;
}

CAMLprim value zkdet_fp64_add_bc(value *argv, int argn)
{
  (void)argn;
  return zkdet_fp64_add(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6]);
}

CAMLprim value zkdet_fp64_sub(value vprm, value vdst, value vdoff, value va,
                              value vaoff, value vb, value vboff)
{
  uint64_t p[4], n0, a[4], b[4], t[4];
  load_prm(vprm, p, &n0);
  load_el(va, vaoff, a);
  load_el(vb, vboff, b);
  sub4(p, t, a, b);
  store_el(vdst, vdoff, t);
  return Val_unit;
}

CAMLprim value zkdet_fp64_sub_bc(value *argv, int argn)
{
  (void)argn;
  return zkdet_fp64_sub(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6]);
}

/* Fused radix-2 butterfly: u = buf[i]; v = buf[j]*w;
 * buf[i] = u + v; buf[j] = u - v.  (prm, buf, ioff, joff, w, woff). */
CAMLprim value zkdet_fp64_butterfly(value vprm, value vbuf, value vioff,
                                    value vjoff, value vw, value vwoff)
{
  uint64_t p[4], n0, u[4], x[4], w[4], v[4], s[4], d[4];
  load_prm(vprm, p, &n0);
  load_el(vbuf, vioff, u);
  load_el(vbuf, vjoff, x);
  load_el(vw, vwoff, w);
  mont_mul4(p, n0, v, x, w);
  add4(p, s, u, v);
  sub4(p, d, u, v);
  store_el(vbuf, vioff, s);
  store_el(vbuf, vjoff, d);
  return Val_unit;
}

CAMLprim value zkdet_fp64_butterfly_bc(value *argv, int argn)
{
  (void)argn;
  return zkdet_fp64_butterfly(argv[0], argv[1], argv[2], argv[3], argv[4],
                              argv[5]);
}
