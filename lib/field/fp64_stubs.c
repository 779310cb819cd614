/* Unrolled 4x64-bit Montgomery field kernels for Fp64 (fp64.ml).
 *
 * Elements are 32-byte slices of an OCaml Bytes value: 4 little-endian
 * uint64 limbs, value < p, Montgomery form (x*R mod p with R = 2^256).
 * OCaml Bytes data is word-aligned and offsets are multiples of 32, so
 * uint64_t loads/stores at (base + offset) are aligned.  Limbs are read
 * with unaligned-safe memcpy anyway to keep the stubs strictly portable.
 *
 * The parameter block prm is a 72-byte Bytes: p[0..3], n0 = -p^-1 mod
 * 2^64, then one = R mod p (Montgomery form of 1).  All entry points are
 * [@@noalloc] on the OCaml side: nothing here allocates on the OCaml heap,
 * raises or calls back into OCaml.
 *
 * The Montgomery kernel itself (mont_mul4, add4, sub4) is in mont4.h,
 * which the pairing's tower stubs (lib/curve/tower_stubs.c) share.
 */

#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#include "mont4.h"

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

/* ---- Batch-affine bucket round (Weierstrass.reduce_buckets) ----
 *
 * Bucket b holds len[b] finite affine points of a y^2 = x^3 + b curve
 * over this field, in cells start[b] .. start[b] + len[b] - 1 of the
 * coordinate buffers ex/ey.  One round adds the points of every bucket
 * in pairs, sharing one field inversion across all slope denominators.
 * It is two calls around that inversion, which the OCaml side does with
 * the field's own [inv]:
 *
 *   round_pairs  writes each pair's slope numerator and denominator into
 *                num/den and the prefix products of the nonzero
 *                denominators into scratch (cell np holds the total);
 *   round_apply  takes the inverse of the total from scratch cell np + 1,
 *                inverts every nonzero denominator, and applies the
 *                additions, compacting each bucket in place.
 *
 * A zero denominator marks a pair that annihilates (P + -P); it drops
 * out.  The OCaml round in weierstrass.ml is the same algorithm step for
 * step, so both leave identical buckets.  The caller guarantees the
 * shapes: num/den hold at least np cells and scratch np + 2. */

static inline void ld4(const unsigned char *b, long i, uint64_t x[4])
{
  const unsigned char *q = b + 32 * i;
  x[0] = ld(q, 0); x[1] = ld(q, 1); x[2] = ld(q, 2); x[3] = ld(q, 3);
}

static inline void st4(unsigned char *b, long i, const uint64_t x[4])
{
  unsigned char *q = b + 32 * i;
  st(q, 0, x[0]); st(q, 1, x[1]); st(q, 2, x[2]); st(q, 3, x[3]);
}

static inline int is_zero4(const uint64_t x[4])
{
  return (x[0] | x[1] | x[2] | x[3]) == 0;
}

static inline int eq4(const uint64_t a[4], const uint64_t b[4])
{
  return ((a[0] ^ b[0]) | (a[1] ^ b[1]) | (a[2] ^ b[2]) | (a[3] ^ b[3])) == 0;
}

/* (prm, ex, ey, start, len, num, den, scratch) -> number of pairs np. */
CAMLprim value zkdet_fp64_round_pairs(value vprm, value vex, value vey,
                                      value vstart, value vlen, value vnum,
                                      value vden, value vscratch)
{
  uint64_t p[4], n0, acc[4];
  load_prm(vprm, p, &n0);
  ld4((const unsigned char *)Bytes_val(vprm) + 40, 0, acc);
  const unsigned char *ex = (const unsigned char *)Bytes_val(vex);
  const unsigned char *ey = (const unsigned char *)Bytes_val(vey);
  unsigned char *num = (unsigned char *)Bytes_val(vnum);
  unsigned char *den = (unsigned char *)Bytes_val(vden);
  unsigned char *scr = (unsigned char *)Bytes_val(vscratch);
  mlsize_t nbuckets = Wosize_val(vstart);
  long np = 0;
  for (mlsize_t b = 0; b < nbuckets; b++) {
    long s = Long_val(Field(vstart, b)), m = Long_val(Field(vlen, b));
    for (long k = 0; k < m / 2; k++) {
      long i = s + 2 * k;
      uint64_t x1[4], x2[4], y1[4], y2[4], nu[4], de[4];
      ld4(ex, i, x1); ld4(ex, i + 1, x2);
      ld4(ey, i, y1); ld4(ey, i + 1, y2);
      if (!eq4(x1, x2)) {          /* chord: (y2 - y1) / (x2 - x1) */
        sub4(p, nu, y2, y1);
        sub4(p, de, x2, x1);
      } else if (eq4(y1, y2) && !is_zero4(y1)) { /* tangent: 3x^2 / 2y */
        uint64_t sq[4], t[4];
        mont_mul4(p, n0, sq, x1, x1);
        add4(p, t, sq, sq);
        add4(p, nu, t, sq);
        add4(p, de, y1, y1);
      } else {                     /* P + -P */
        memset(nu, 0, sizeof nu);
        memset(de, 0, sizeof de);
      }
      st4(num, np, nu);
      st4(den, np, de);
      st4(scr, np, acc);
      if (!is_zero4(de)) mont_mul4(p, n0, acc, acc, de);
      np++;
    }
  }
  st4(scr, np, acc);
  return Val_long(np);
}

CAMLprim value zkdet_fp64_round_pairs_bc(value *argv, int argn)
{
  (void)argn;
  return zkdet_fp64_round_pairs(argv[0], argv[1], argv[2], argv[3], argv[4],
                                argv[5], argv[6], argv[7]);
}

/* (prm, ex, ey, start, len, num, den, scratch, np). */
CAMLprim value zkdet_fp64_round_apply(value vprm, value vex, value vey,
                                      value vstart, value vlen, value vnum,
                                      value vden, value vscratch, value vnp)
{
  uint64_t p[4], n0, inv[4];
  load_prm(vprm, p, &n0);
  unsigned char *ex = (unsigned char *)Bytes_val(vex);
  unsigned char *ey = (unsigned char *)Bytes_val(vey);
  const unsigned char *num = (const unsigned char *)Bytes_val(vnum);
  unsigned char *den = (unsigned char *)Bytes_val(vden);
  const unsigned char *scr = (const unsigned char *)Bytes_val(vscratch);
  long np = Long_val(vnp);
  /* Backward pass of Montgomery's trick: den[j] <- 1 / den[j]. */
  ld4(scr, np + 1, inv);
  for (long j = np - 1; j >= 0; j--) {
    uint64_t d[4], pre[4], di[4];
    ld4(den, j, d);
    if (is_zero4(d)) continue;
    ld4(scr, j, pre);
    mont_mul4(p, n0, di, inv, pre);
    mont_mul4(p, n0, inv, inv, d);
    st4(den, j, di);
  }
  /* Apply: x3 = l^2 - x1 - x2, y3 = l (x1 - x3) - y1, written at the
     bucket's write pointer, which never passes the pair being read. */
  mlsize_t nbuckets = Wosize_val(vstart);
  long j = 0;
  for (mlsize_t b = 0; b < nbuckets; b++) {
    long s = Long_val(Field(vstart, b)), m = Long_val(Field(vlen, b));
    if (m < 2) continue;
    long wp = s;
    for (long k = 0; k < m / 2; k++, j++) {
      long i = s + 2 * k;
      uint64_t di[4], l[4], x1[4], x2[4], y1[4], x3[4], y3[4];
      ld4(den, j, di);
      if (is_zero4(di)) continue;
      ld4(num, j, l);
      mont_mul4(p, n0, l, l, di);
      ld4(ex, i, x1); ld4(ex, i + 1, x2); ld4(ey, i, y1);
      mont_mul4(p, n0, x3, l, l);
      sub4(p, x3, x3, x1);
      sub4(p, x3, x3, x2);
      sub4(p, y3, x1, x3);
      mont_mul4(p, n0, y3, l, y3);
      sub4(p, y3, y3, y1);
      st4(ex, wp, x3);
      st4(ey, wp, y3);
      wp++;
    }
    if (m & 1) {                   /* the odd leftover moves down */
      long i = s + m - 1;
      if (wp != i) {
        memmove(ex + 32 * wp, ex + 32 * i, 32);
        memmove(ey + 32 * wp, ey + 32 * i, 32);
      }
      wp++;
    }
    Field(vlen, b) = Val_long(wp - s);
  }
  return Val_unit;
}

CAMLprim value zkdet_fp64_round_apply_bc(value *argv, int argn)
{
  (void)argn;
  return zkdet_fp64_round_apply(argv[0], argv[1], argv[2], argv[3], argv[4],
                                argv[5], argv[6], argv[7], argv[8]);
}

/* ---- Radix-2 FFT layer and bit reversal (Domain transforms) ----
 *
 * One layer of an iterative Cooley-Tukey transform works on blocks of
 * 2*half cells.  For every block b in [blo, bhi) and butterfly j in
 * [jlo, jhi), with i = 2*half*b + j, u = buf[i], x = buf[i + half] and
 * twiddle w = tw[j*stride]:
 *
 *   buf[i] <- u + x*w      buf[i + half] <- u - x*w
 *
 * The twiddle table holds omega^j of the full transform, so layer
 * stride n / (2*half) picks that layer's root powers.  Cell 0 of every
 * table is one, and x * one = x exactly, so j = 0 skips the product.
 * The OCaml side checks every index against the buffers' lengths before
 * calling (fp64.ml, check_layer_shapes). */

/* (prm, buf, tw, stride, half, blo, bhi, jlo, jhi). */
CAMLprim value zkdet_fp64_fft_layer(value vprm, value vbuf, value vtw,
                                    value vstride, value vhalf, value vblo,
                                    value vbhi, value vjlo, value vjhi)
{
  uint64_t p[4], n0;
  load_prm(vprm, p, &n0);
  unsigned char *a = (unsigned char *)Bytes_val(vbuf);
  const unsigned char *tw = (const unsigned char *)Bytes_val(vtw);
  long stride = Long_val(vstride), half = Long_val(vhalf);
  long bhi = Long_val(vbhi), jlo = Long_val(vjlo), jhi = Long_val(vjhi);
  for (long b = Long_val(vblo); b < bhi; b++) {
    unsigned char *lo = a + 32 * (2 * half * b);
    unsigned char *hi = lo + 32 * half;
    for (long j = jlo; j < jhi; j++) {
      uint64_t u[4], x[4], w[4], v[4], s[4], d[4];
      ld4(lo, j, u);
      ld4(hi, j, x);
      if (j == 0) {
        memcpy(v, x, sizeof v);
      } else {
        ld4(tw, j * stride, w);
        mont_mul4(p, n0, v, x, w);
      }
      add4(p, s, u, v);
      sub4(p, d, u, v);
      st4(lo, j, s);
      st4(hi, j, d);
    }
  }
  return Val_unit;
}

CAMLprim value zkdet_fp64_fft_layer_bc(value *argv, int argn)
{
  (void)argn;
  return zkdet_fp64_fft_layer(argv[0], argv[1], argv[2], argv[3], argv[4],
                              argv[5], argv[6], argv[7], argv[8]);
}

/* Reverse the low [bits] bits of x (1 <= bits <= 63). */
static inline uint64_t rev_bits(uint64_t x, int bits)
{
  x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
  x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
  x = ((x >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((x & 0x0F0F0F0F0F0F0F0FULL) << 4);
  x = ((x >> 8) & 0x00FF00FF00FF00FFULL) | ((x & 0x00FF00FF00FF00FFULL) << 8);
  x = ((x >> 16) & 0x0000FFFF0000FFFFULL) | ((x & 0x0000FFFF0000FFFFULL) << 16);
  x = (x >> 32) | (x << 32);
  return x >> (64 - bits);
}

/* (buf, log2n): swap cell i with cell rev(i) for the 2^log2n cells. */
CAMLprim value zkdet_fp64_bit_reverse(value vbuf, value vlog)
{
  unsigned char *a = (unsigned char *)Bytes_val(vbuf);
  int bits = (int)Long_val(vlog);
  if (bits < 1) return Val_unit;
  uint64_t n = (uint64_t)1 << bits;
  for (uint64_t i = 0; i < n; i++) {
    uint64_t j = rev_bits(i, bits);
    if (i < j) {
      unsigned char t[32];
      memcpy(t, a + 32 * i, 32);
      memcpy(a + 32 * i, a + 32 * j, 32);
      memcpy(a + 32 * j, t, 32);
    }
  }
  return Val_unit;
}
