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
 * which the curve layer's stubs (lib/curve/tower_stubs.c for the
 * pairing's tower, lib/curve/msm_stubs.c for G1's MSM) share.
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
