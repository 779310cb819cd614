/* G1's Pippenger in C over the shared Montgomery kernel (lib/field/mont4.h),
 * for weierstrass.ml: the engine of every MSM on a curve y^2 = x^3 + b
 * (a = 0) whose field runs on that kernel.  The formulas never read b.
 *
 * An MSM is a few [@@noalloc] calls:
 *
 *   chunk  (one per chunk of the points, possibly on different domains)
 *          reads each scalar's signed digits from its canonical limbs,
 *          counting-sorts the (point, window) entries into buckets, fills
 *          the buckets (negating y for a negative digit), reduces every
 *          bucket to at most one point by rounds of batch-affine additions
 *          and writes the survivors, sorted by bucket, into the chunk's
 *          region of the work buffer.  On the generic path it first
 *          normalizes its own points to affine.
 *   merge  gathers the chunks' survivors in chunk order, reduces them the
 *          same way, and finishes with the running sums (and, on the
 *          generic path, the Horner doublings between windows).
 *   build  fills a fixed-base table's rows for a range of bases: c
 *          doublings per row, then one batch normalization.
 *
 * Each round of additions shares one field inversion, computed here by
 * Fermat exponentiation.  Rounds, digits, fill order, merge order and the
 * Jacobian formulas are those of the OCaml chunk in weierstrass.ml, step
 * for step, so both engines give the same points, the same round counts
 * and the same bytes.
 *
 * Memory: the OCaml side owns two buffers and sizes them with the queries
 * below before every call.  The work buffer belongs to one MSM: its head
 * (written by OCaml) is the shape -- int64s n, c, nw, nchunks and table at
 * bytes 0..39 -- then the result (x, y, z) in cells 2..4; on the generic
 * path the points follow as (x, y, z) cells from cell 5, then on both
 * paths the scalars' canonical limbs, a cell each.  The rest (finite flags
 * and the survivor regions) is this file's.  The scratch buffer is the
 * calling domain's arena: nothing in it outlives one call.  No kernel
 * allocates on the OCaml heap, raises, calls back into OCaml or keeps
 * static state, so any number of domains may run them at once.
 */

#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#include "mont4.h"

typedef struct {
  uint64_t p[4];
  uint64_t n0;
  uint64_t one[4];
} fld;

/* The field's 72-byte parameter block: p, n0, R mod p. */
static void load_fld(value vprm, fld *F)
{
  const unsigned char *b = (const unsigned char *)String_val(vprm);
  for (int i = 0; i < 4; i++) F->p[i] = ld(b, i);
  F->n0 = ld(b, 4);
  for (int i = 0; i < 4; i++) F->one[i] = ld(b + 40, i);
}

static inline void ld4(const unsigned char *b, size_t i, uint64_t x[4])
{
  const unsigned char *q = b + 32 * i;
  x[0] = ld(q, 0); x[1] = ld(q, 1); x[2] = ld(q, 2); x[3] = ld(q, 3);
}

static inline void st4(unsigned char *b, size_t i, const uint64_t x[4])
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

#define MUL(t, a, b) mont_mul4(F->p, F->n0, (t), (a), (b))
#define ADD(t, a, b) add4(F->p, (t), (a), (b))
#define SUB(t, a, b) sub4(F->p, (t), (a), (b))

/* t = a^(p - 2) = 1 / a for a != 0, by square-and-multiply over the bits
   of p - 2, top bit first. */
static void inv4(const fld *F, uint64_t t[4], const uint64_t a[4])
{
  uint64_t e[4], bo, r[4];
  e[0] = sbb64(F->p[0], 2, 0, &bo);
  e[1] = sbb64(F->p[1], 0, bo, &bo);
  e[2] = sbb64(F->p[2], 0, bo, &bo);
  e[3] = sbb64(F->p[3], 0, bo, &bo);
  int top = 255;
  while (top > 0 && !((e[top >> 6] >> (top & 63)) & 1)) top--;
  memcpy(r, F->one, sizeof r);
  for (int i = top; i >= 0; i--) {
    MUL(r, r, r);
    if ((e[i >> 6] >> (i & 63)) & 1) MUL(r, r, a);
  }
  memcpy(t, r, sizeof r);
}

/* ---- Jacobian points (z = 0 is the identity, kept as (1, 1, 0)) ---- */

typedef struct {
  uint64_t x[4], y[4], z[4];
} jac;

static void jac_zero(const fld *F, jac *r)
{
  memcpy(r->x, F->one, 32);
  memcpy(r->y, F->one, 32);
  memset(r->z, 0, 32);
}

/* dbl-2009-l, as Weierstrass.double. */
static void jac_double(const fld *F, jac *r, const jac *q)
{
  if (is_zero4(q->z)) { *r = *q; return; }
  if (is_zero4(q->y)) { jac_zero(F, r); return; }
  uint64_t a[4], b[4], c[4], d[4], e[4], f[4], t[4];
  jac o;
  MUL(a, q->x, q->x);
  MUL(b, q->y, q->y);
  MUL(c, b, b);
  ADD(t, q->x, b);
  MUL(t, t, t);
  SUB(t, t, a);
  SUB(t, t, c);
  ADD(d, t, t);
  ADD(e, a, a);
  ADD(e, e, a);
  MUL(f, e, e);
  ADD(t, d, d);
  SUB(o.x, f, t);
  SUB(t, d, o.x);
  MUL(o.y, e, t);
  ADD(t, c, c);
  ADD(t, t, t);
  ADD(t, t, t);
  SUB(o.y, o.y, t);
  MUL(o.z, q->y, q->z);
  ADD(o.z, o.z, o.z);
  *r = o;
}

/* add-2007-bl, as Weierstrass.add. */
static void jac_add(const fld *F, jac *r, const jac *p, const jac *q)
{
  if (is_zero4(p->z)) { *r = *q; return; }
  if (is_zero4(q->z)) { *r = *p; return; }
  uint64_t z1z1[4], z2z2[4], u1[4], u2[4], s1[4], s2[4], t[4];
  uint64_t h[4], i[4], j[4], rr[4], v[4];
  jac o;
  MUL(z1z1, p->z, p->z);
  MUL(z2z2, q->z, q->z);
  MUL(u1, p->x, z2z2);
  MUL(u2, q->x, z1z1);
  MUL(t, z2z2, q->z);
  MUL(s1, p->y, t);
  MUL(t, z1z1, p->z);
  MUL(s2, q->y, t);
  if (eq4(u1, u2)) {
    if (eq4(s1, s2)) jac_double(F, r, p);
    else jac_zero(F, r);
    return;
  }
  SUB(h, u2, u1);
  ADD(t, h, h);
  MUL(i, t, t);
  MUL(j, h, i);
  SUB(t, s2, s1);
  ADD(rr, t, t);
  MUL(v, u1, i);
  MUL(t, rr, rr);
  SUB(t, t, j);
  SUB(o.x, t, v);
  SUB(o.x, o.x, v);
  SUB(t, v, o.x);
  MUL(o.y, rr, t);
  MUL(t, s1, j);
  ADD(t, t, t);
  SUB(o.y, o.y, t);
  ADD(t, p->z, q->z);
  MUL(t, t, t);
  SUB(t, t, z1z1);
  SUB(t, t, z2z2);
  MUL(o.z, t, h);
  *r = o;
}

/* Mixed addition of an affine point, as Weierstrass.add_mixed. */
static void jac_add_affine(const fld *F, jac *r, const jac *p,
                           const uint64_t x2[4], const uint64_t y2[4])
{
  if (is_zero4(p->z)) {
    memcpy(r->x, x2, 32);
    memcpy(r->y, y2, 32);
    memcpy(r->z, F->one, 32);
    return;
  }
  uint64_t z1z1[4], u2[4], s2[4], t[4], h[4], hh[4], i[4], j[4], rr[4], v[4];
  jac o;
  MUL(z1z1, p->z, p->z);
  MUL(u2, x2, z1z1);
  MUL(t, p->z, z1z1);
  MUL(s2, y2, t);
  if (eq4(p->x, u2)) {
    if (eq4(p->y, s2)) jac_double(F, r, p);
    else jac_zero(F, r);
    return;
  }
  SUB(h, u2, p->x);
  MUL(hh, h, h);
  ADD(i, hh, hh);
  ADD(i, i, i);
  MUL(j, h, i);
  SUB(t, s2, p->y);
  ADD(rr, t, t);
  MUL(v, p->x, i);
  MUL(t, rr, rr);
  SUB(t, t, j);
  SUB(o.x, t, v);
  SUB(o.x, o.x, v);
  SUB(t, v, o.x);
  MUL(o.y, rr, t);
  MUL(t, p->y, j);
  ADD(t, t, t);
  SUB(o.y, o.y, t);
  ADD(t, p->z, h);
  MUL(t, t, t);
  SUB(t, t, z1z1);
  SUB(o.z, t, hh);
  *r = o;
}

/* ---- batch-affine bucket reduction ----
 *
 * Bucket b holds len[b] finite affine points in cells start[b] ..
 * start[b] + len[b] - 1 of ex/ey.  A round adds each bucket's points in
 * consecutive pairs, sharing one inversion across the slope denominators
 * (Montgomery's trick: pre[j] is the product of the nonzero denominators
 * before pair j), drops pairs that sum to the identity (a zero
 * denominator), and compacts each bucket to its start, the odd leftover
 * moving down behind the sums.  Rounds run until every bucket holds at
 * most one point; the count of rounds is returned.  num, den and pre need
 * a cell per pair of the first round. */

typedef struct {
  unsigned char *ex, *ey;
  uint32_t *start, *len;
  size_t nb;
  unsigned char *num, *den, *pre;
} buckets;

static long reduce_buckets(const fld *F, const buckets *B)
{
  long rounds = 0;
  for (;;) {
    uint64_t acc[4];
    memcpy(acc, F->one, sizeof acc);
    size_t np = 0;
    for (size_t b = 0; b < B->nb; b++) {
      size_t s = B->start[b], m = B->len[b];
      for (size_t k = 0; k + 1 < m; k += 2) {
        size_t i = s + k;
        uint64_t x1[4], x2[4], y1[4], y2[4], nu[4], de[4];
        ld4(B->ex, i, x1); ld4(B->ex, i + 1, x2);
        ld4(B->ey, i, y1); ld4(B->ey, i + 1, y2);
        if (!eq4(x1, x2)) {          /* chord: (y2 - y1) / (x2 - x1) */
          SUB(nu, y2, y1);
          SUB(de, x2, x1);
        } else if (eq4(y1, y2) && !is_zero4(y1)) { /* tangent: 3x^2 / 2y */
          uint64_t sq[4], t[4];
          MUL(sq, x1, x1);
          ADD(t, sq, sq);
          ADD(nu, t, sq);
          ADD(de, y1, y1);
        } else {                     /* P + -P */
          memset(nu, 0, sizeof nu);
          memset(de, 0, sizeof de);
        }
        st4(B->num, np, nu);
        st4(B->den, np, de);
        st4(B->pre, np, acc);
        if (!is_zero4(de)) MUL(acc, acc, de);
        np++;
      }
    }
    if (np == 0) return rounds;
    rounds++;
    /* Backward pass of Montgomery's trick: den[j] <- 1 / den[j]. */
    uint64_t inv[4];
    inv4(F, inv, acc);
    for (size_t j = np; j-- > 0;) {
      uint64_t d[4], pr[4], di[4];
      ld4(B->den, j, d);
      if (is_zero4(d)) continue;
      ld4(B->pre, j, pr);
      MUL(di, inv, pr);
      MUL(inv, inv, d);
      st4(B->den, j, di);
    }
    /* Apply: x3 = l^2 - x1 - x2, y3 = l (x1 - x3) - y1, written at the
       bucket's write pointer, which never passes the pair being read. */
    int pending = 0;
    size_t j = 0;
    for (size_t b = 0; b < B->nb; b++) {
      size_t s = B->start[b], m = B->len[b];
      if (m < 2) continue;
      size_t wp = s;
      for (size_t k = 0; k + 1 < m; k += 2, j++) {
        size_t i = s + k;
        uint64_t di[4], l[4], x1[4], x2[4], y1[4], x3[4], y3[4];
        ld4(B->den, j, di);
        if (is_zero4(di)) continue;
        ld4(B->num, j, l);
        MUL(l, l, di);
        ld4(B->ex, i, x1); ld4(B->ex, i + 1, x2); ld4(B->ey, i, y1);
        MUL(x3, l, l);
        SUB(x3, x3, x1);
        SUB(x3, x3, x2);
        SUB(y3, x1, x3);
        MUL(y3, l, y3);
        SUB(y3, y3, y1);
        st4(B->ex, wp, x3);
        st4(B->ey, wp, y3);
        wp++;
      }
      if (m & 1) {
        size_t i = s + m - 1;
        if (wp != i) {
          memcpy(B->ex + 32 * wp, B->ex + 32 * i, 32);
          memcpy(B->ey + 32 * wp, B->ey + 32 * i, 32);
        }
        wp++;
      }
      B->len[b] = (uint32_t)(wp - s);
      if (wp - s > 1) pending = 1;
    }
    if (!pending) return rounds;
  }
}

/* Sum over j of (j + 1) times bucket first + j, by running sums, as
   Weierstrass.bucket_running_sum. */
static void running_sum(const fld *F, jac *sum, const buckets *B, size_t first,
                        size_t count)
{
  jac run;
  jac_zero(F, &run);
  jac_zero(F, sum);
  for (size_t j = count; j-- > 0;) {
    size_t b = first + j;
    if (B->len[b] == 1) {
      uint64_t x[4], y[4];
      ld4(B->ex, B->start[b], x);
      ld4(B->ey, B->start[b], y);
      jac_add_affine(F, &run, &run, x, y);
    }
    if (!is_zero4(run.z)) jac_add(F, sum, sum, &run);
  }
}

/* ---- signed digits, as Weierstrass.signed_digits ---- */

/* The c-bit window at bit lo of a value's limbs (l[4] is zero padding). */
static inline long window_at(const uint64_t l[5], long lo, long c)
{
  long w = lo >> 6, s = lo & 63;
  uint64_t v = l[w] >> s;
  if (s + c > 64) v |= l[w + 1] << (64 - s);
  return (long)(v & ((UINT64_C(1) << c) - 1));
}

/* Digits in (-2^(c-1), 2^(c-1)] of the canonical limbs at b, with a last
   window that takes the final carry. */
static void signed_digits(const unsigned char *b, long c, long nw,
                          int32_t *out)
{
  uint64_t l[5] = { ld(b, 0), ld(b, 1), ld(b, 2), ld(b, 3), 0 };
  long half = 1L << (c - 1), carry = 0;
  for (long w = 0; w < nw - 1; w++) {
    long v = window_at(l, w * c, c) + carry;
    if (v > half) {
      out[w] = (int32_t)(v - 2 * half);
      carry = 1;
    } else {
      out[w] = (int32_t)v;
      carry = 0;
    }
  }
  out[nw - 1] = (int32_t)carry;
}

/* ---- layouts ---- */

static inline size_t up32(size_t x) { return (x + 31) & ~(size_t)31; }

/* One MSM's shape and where its parts live in the work buffer.  A
   survivor region of capacity cap is a count (8 bytes, padded to a cell),
   cap bucket ids (uint32) and cap (x, y) cell pairs. */
typedef struct {
  size_t n, c, nw, k, table, half, nb, maxlen, cap;
  size_t pts, scl, fin, surv, region, work;
} shape;

static void shape_of(shape *S, size_t n, size_t c, size_t nw, size_t k,
                     size_t table)
{
  S->n = n; S->c = c; S->nw = nw; S->k = k; S->table = table;
  S->half = (size_t)1 << (c - 1);
  S->nb = table ? S->half : nw * S->half;
  S->maxlen = (n + k - 1) / k;
  size_t e = S->maxlen * nw;
  S->cap = e < S->nb ? e : S->nb;
  S->pts = 32 * 5;
  S->scl = S->pts + (table ? 0 : 96 * n);
  S->fin = S->scl + 32 * n;
  S->surv = S->fin + (table ? 0 : up32(n));
  S->region = 32 + up32(4 * S->cap) + 64 * S->cap;
  S->work = S->surv + k * S->region;
}

static void shape_read(shape *S, const unsigned char *w)
{
  shape_of(S, ld(w, 0), ld(w, 1), ld(w, 2), ld(w, 3), ld(w, 4));
}

/* Scratch for a reduction of up to [entries] points in [nb] buckets:
   start and len, the coordinates, then num, den and pre. */
static size_t reduce_bytes(size_t nb, size_t entries)
{
  size_t pairs = entries / 2 + 1;
  return 2 * up32(4 * nb) + 2 * 32 * entries + 3 * 32 * pairs;
}

static void reduce_bind(buckets *B, unsigned char *s, size_t nb,
                        size_t entries)
{
  size_t pairs = entries / 2 + 1;
  B->nb = nb;
  B->start = (uint32_t *)s;         s += up32(4 * nb);
  B->len = (uint32_t *)s;           s += up32(4 * nb);
  B->ex = s;                        s += 32 * entries;
  B->ey = s;                        s += 32 * entries;
  B->num = s;                       s += 32 * pairs;
  B->den = s;                       s += 32 * pairs;
  B->pre = s;
}

/* A chunk's scratch: its digits and the normalization's prefix products,
   then its buckets. */
static size_t chunk_bytes(const shape *S)
{
  size_t e = S->maxlen * S->nw;
  return up32(4 * e) + 32 * S->maxlen + reduce_bytes(S->nb, e);
}

static size_t merge_bytes(const shape *S)
{
  return reduce_bytes(S->nb, S->k * S->cap);
}

/* (n, c, nw, nchunks, table): the bytes of the work buffer. */
CAMLprim value zkdet_msm_work_bytes(value vn, value vc, value vnw, value vk,
                                    value vtable)
{
  shape S;
  shape_of(&S, Long_val(vn), Long_val(vc), Long_val(vnw), Long_val(vk),
           Bool_val(vtable));
  return Val_long(S.work);
}

/* (n, c, nw, nchunks, table): the scratch every call of the MSM fits in. */
CAMLprim value zkdet_msm_scratch_bytes(value vn, value vc, value vnw,
                                       value vk, value vtable)
{
  shape S;
  shape_of(&S, Long_val(vn), Long_val(vc), Long_val(vnw), Long_val(vk),
           Bool_val(vtable));
  size_t a = chunk_bytes(&S), b = merge_bytes(&S);
  return Val_long(a > b ? a : b);
}

/* ---- one chunk ---- */

/* Affine form, in place, of the chunk's points [lo, hi) (cells x, y, z),
   with one inversion; fin[i] marks a finite point.  A point with z = 1
   is already affine. */
static void normalize_points(const fld *F, unsigned char *pts,
                             unsigned char *fin, unsigned char *pre,
                             size_t lo, size_t hi)
{
  uint64_t acc[4], z[4];
  int any = 0;
  memcpy(acc, F->one, sizeof acc);
  for (size_t i = lo; i < hi; i++) {
    ld4(pts, 3 * i + 2, z);
    fin[i] = !is_zero4(z);
    if (fin[i] && !eq4(z, F->one)) {
      st4(pre, i - lo, acc);
      MUL(acc, acc, z);
      any = 1;
    }
  }
  if (!any) return;
  uint64_t inv[4];
  inv4(F, inv, acc);
  for (size_t i = hi; i-- > lo;) {
    ld4(pts, 3 * i + 2, z);
    if (!fin[i] || eq4(z, F->one)) continue;
    uint64_t pr[4], zi[4], zi2[4], x[4], y[4];
    ld4(pre, i - lo, pr);
    MUL(zi, inv, pr);
    MUL(inv, inv, z);
    MUL(zi2, zi, zi);
    ld4(pts, 3 * i, x);
    ld4(pts, 3 * i + 1, y);
    MUL(x, x, zi2);
    MUL(zi2, zi2, zi);
    MUL(y, y, zi2);
    st4(pts, 3 * i, x);
    st4(pts, 3 * i + 1, y);
  }
}

/* (prm, work, scratch, tx, ty, tfin, ci) -> rounds.  Chunk ci of the
   MSM whose shape heads work.  On the table path tx/ty are the table's
   coordinate buffers and tfin its finite flags (row (i, w) at index
   i nw + w); the generic path reads its points from work and ignores
   them. */
CAMLprim value zkdet_msm_chunk(value vprm, value vwork, value vscratch,
                               value vtx, value vty, value vtfin, value vci)
{
  fld F_;
  const fld *F = &F_;
  load_fld(vprm, &F_);
  unsigned char *w = (unsigned char *)Bytes_val(vwork);
  shape S;
  shape_read(&S, w);
  size_t ci = Long_val(vci);
  size_t lo = ci * S.n / S.k, hi = (ci + 1) * S.n / S.k, cnt = hi - lo;
  size_t nw = S.nw, half = S.half, e = S.maxlen * nw;
  unsigned char *s = (unsigned char *)Bytes_val(vscratch);
  int32_t *dig = (int32_t *)s;
  unsigned char *npre = s + up32(4 * e);
  buckets B;
  reduce_bind(&B, npre + 32 * S.maxlen, S.nb, e);
  uint32_t *start = B.start, *len = B.len;
  const unsigned char *scl = w + S.scl;
  unsigned char *pts = w + S.pts, *fin = w + S.fin;
  const unsigned char *tx = (const unsigned char *)Bytes_val(vtx);
  const unsigned char *ty = (const unsigned char *)Bytes_val(vty);
  const unsigned char *tfin = (const unsigned char *)Bytes_val(vtfin);

  if (!S.table) normalize_points(F, pts, fin, npre, lo, hi);

  /* Digits, counted per bucket: an identity point or row files nothing. */
  memset(len, 0, 4 * S.nb);
  for (size_t i = 0; i < cnt; i++) {
    int32_t *d = dig + i * nw;
    size_t g = lo + i;
    if (!S.table && !fin[g]) {
      memset(d, 0, 4 * nw);
      continue;
    }
    signed_digits(scl + 32 * g, S.c, nw, d);
    for (size_t v = 0; v < nw; v++) {
      if (S.table && !tfin[g * nw + v]) d[v] = 0;
      if (d[v] == 0) continue;
      size_t b = (S.table ? 0 : v * half) + (size_t)(d[v] < 0 ? -d[v] : d[v]) - 1;
      len[b]++;
    }
  }
  size_t acc = 0;
  for (size_t b = 0; b < S.nb; b++) {
    start[b] = (uint32_t)acc;
    acc += len[b];
    len[b] = 0;
  }

  /* Fill, point by point and window by window. */
  const uint64_t zero[4] = { 0, 0, 0, 0 };
  for (size_t i = 0; i < cnt; i++) {
    const int32_t *d = dig + i * nw;
    size_t g = lo + i;
    if (S.table) {
      for (size_t v = 0; v < nw; v++) {
        if (d[v] == 0) continue;
        size_t b = (size_t)(d[v] < 0 ? -d[v] : d[v]) - 1;
        size_t pos = start[b] + len[b]++, row = g * nw + v;
        memcpy(B.ex + 32 * pos, tx + 32 * row, 32);
        if (d[v] > 0) {
          memcpy(B.ey + 32 * pos, ty + 32 * row, 32);
        } else {
          uint64_t y[4];
          ld4(ty, row, y);
          SUB(y, zero, y);
          st4(B.ey, pos, y);
        }
      }
    } else {
      if (!fin[g]) continue;
      uint64_t x[4], y[4], yn[4];
      ld4(pts, 3 * g, x);
      ld4(pts, 3 * g + 1, y);
      SUB(yn, zero, y);
      for (size_t v = 0; v < nw; v++) {
        if (d[v] == 0) continue;
        size_t b = v * half + (size_t)(d[v] < 0 ? -d[v] : d[v]) - 1;
        size_t pos = start[b] + len[b]++;
        st4(B.ex, pos, x);
        st4(B.ey, pos, d[v] > 0 ? y : yn);
      }
    }
  }

  long rounds = reduce_buckets(F, &B);

  /* The survivors, in bucket order, into region ci. */
  unsigned char *r = w + S.surv + ci * S.region;
  uint32_t *ids = (uint32_t *)(r + 32);
  unsigned char *xy = r + 32 + up32(4 * S.cap);
  size_t ns = 0;
  for (size_t b = 0; b < S.nb; b++) {
    if (len[b] != 1) continue;
    ids[ns] = (uint32_t)b;
    memcpy(xy + 64 * ns, B.ex + 32 * (size_t)start[b], 32);
    memcpy(xy + 64 * ns + 32, B.ey + 32 * (size_t)start[b], 32);
    ns++;
  }
  uint64_t count = ns;
  memcpy(r, &count, 8);
  return Val_long(rounds);
}

CAMLprim value zkdet_msm_chunk_bc(value *argv, int argn)
{
  (void)argn;
  return zkdet_msm_chunk(argv[0], argv[1], argv[2], argv[3], argv[4],
                         argv[5], argv[6]);
}

/* ---- the merge ---- */

static void store_jac(unsigned char *w, const jac *q)
{
  st4(w, 2, q->x);
  st4(w, 3, q->y);
  st4(w, 4, q->z);
}

/* (prm, work, scratch) -> rounds.  Gathers every chunk's survivors, in
   chunk order within a bucket, reduces them, and writes the MSM's value
   to cells 2..4 of work: one running sum over the shared buckets on the
   table path; on the generic path the running sum of each window,
   highest first, with c doublings between windows. */
CAMLprim value zkdet_msm_merge(value vprm, value vwork, value vscratch)
{
  fld F_;
  const fld *F = &F_;
  load_fld(vprm, &F_);
  unsigned char *w = (unsigned char *)Bytes_val(vwork);
  shape S;
  shape_read(&S, w);
  buckets B;
  reduce_bind(&B, (unsigned char *)Bytes_val(vscratch), S.nb, S.k * S.cap);
  uint32_t *start = B.start, *len = B.len;
  memset(len, 0, 4 * S.nb);
  for (size_t ci = 0; ci < S.k; ci++) {
    const unsigned char *r = w + S.surv + ci * S.region;
    const uint32_t *ids = (const uint32_t *)(r + 32);
    uint64_t ns;
    memcpy(&ns, r, 8);
    for (size_t q = 0; q < ns; q++) len[ids[q]]++;
  }
  size_t acc = 0;
  for (size_t b = 0; b < S.nb; b++) {
    start[b] = (uint32_t)acc;
    acc += len[b];
    len[b] = 0;
  }
  for (size_t ci = 0; ci < S.k; ci++) {
    const unsigned char *r = w + S.surv + ci * S.region;
    const uint32_t *ids = (const uint32_t *)(r + 32);
    const unsigned char *xy = r + 32 + up32(4 * S.cap);
    uint64_t ns;
    memcpy(&ns, r, 8);
    for (size_t q = 0; q < ns; q++) {
      size_t b = ids[q], pos = start[b] + len[b]++;
      memcpy(B.ex + 32 * pos, xy + 64 * q, 32);
      memcpy(B.ey + 32 * pos, xy + 64 * q + 32, 32);
    }
  }
  long rounds = reduce_buckets(F, &B);
  jac res;
  if (S.table) {
    running_sum(F, &res, &B, 0, S.half);
  } else {
    jac_zero(F, &res);
    for (size_t v = S.nw; v-- > 0;) {
      jac part;
      if (v < S.nw - 1)
        for (size_t t = 0; t < S.c; t++) jac_double(F, &res, &res);
      running_sum(F, &part, &B, v * S.half, S.half);
      jac_add(F, &res, &res, &part);
    }
  }
  store_jac(w, &res);
  return Val_long(rounds);
}

/* ---- fixed-base table rows ---- */

/* (prm, bases, mx, my, mfin, scratch, c, nw, lo, hi).  For every base i
   in [lo, hi) (cells 3i, 3i + 1, 3i + 2 of bases: x, y, z) and window j
   < nw, row i nw + j is 2^(c j) times the base, in affine form in mx/my
   with mfin set, or zero with mfin clear for the identity.  The scratch
   holds two cells per row of the range (z and the prefix products). */
CAMLprim value zkdet_msm_table_build(value vprm, value vbases, value vmx,
                                     value vmy, value vmfin, value vscratch,
                                     value vc, value vnw, value vlo,
                                     value vhi)
{
  fld F_;
  const fld *F = &F_;
  load_fld(vprm, &F_);
  const unsigned char *bases = (const unsigned char *)Bytes_val(vbases);
  unsigned char *mx = (unsigned char *)Bytes_val(vmx);
  unsigned char *my = (unsigned char *)Bytes_val(vmy);
  unsigned char *mfin = (unsigned char *)Bytes_val(vmfin);
  size_t c = Long_val(vc), nw = Long_val(vnw);
  size_t lo = Long_val(vlo), hi = Long_val(vhi);
  size_t r0 = lo * nw, rows = (hi - lo) * nw;
  unsigned char *zs = (unsigned char *)Bytes_val(vscratch);
  unsigned char *pre = zs + 32 * rows;
  for (size_t i = lo; i < hi; i++) {
    jac cur;
    ld4(bases, 3 * i, cur.x);
    ld4(bases, 3 * i + 1, cur.y);
    ld4(bases, 3 * i + 2, cur.z);
    for (size_t j = 0; j < nw; j++) {
      size_t row = i * nw + j;
      st4(mx, row, cur.x);
      st4(my, row, cur.y);
      st4(zs, row - r0, cur.z);
      if (j + 1 < nw)
        for (size_t t = 0; t < c; t++) jac_double(F, &cur, &cur);
    }
  }
  uint64_t acc[4], z[4], zero[4] = { 0, 0, 0, 0 };
  memcpy(acc, F->one, sizeof acc);
  for (size_t r = 0; r < rows; r++) {
    ld4(zs, r, z);
    if (is_zero4(z)) continue;
    st4(pre, r, acc);
    MUL(acc, acc, z);
  }
  uint64_t inv[4];
  inv4(F, inv, acc);
  for (size_t r = rows; r-- > 0;) {
    size_t row = r0 + r;
    ld4(zs, r, z);
    if (is_zero4(z)) {
      st4(mx, row, zero);
      st4(my, row, zero);
      mfin[row] = 0;
      continue;
    }
    uint64_t pr[4], zi[4], zi2[4], x[4], y[4];
    ld4(pre, r, pr);
    MUL(zi, inv, pr);
    MUL(inv, inv, z);
    MUL(zi2, zi, zi);
    ld4(mx, row, x);
    ld4(my, row, y);
    MUL(x, x, zi2);
    MUL(zi2, zi2, zi);
    MUL(y, y, zi2);
    st4(mx, row, x);
    st4(my, row, y);
    mfin[row] = 1;
  }
  return Val_unit;
}

CAMLprim value zkdet_msm_table_build_bc(value *argv, int argn)
{
  (void)argn;
  return zkdet_msm_table_build(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6], argv[7], argv[8], argv[9]);
}

/* ---- one reduction on caller-built buckets ---- */

/* (nbuckets, entries): the scratch of zkdet_msm_reduce. */
CAMLprim value zkdet_msm_reduce_bytes(value vnb, value ventries)
{
  return Val_long(reduce_bytes(Long_val(vnb), Long_val(ventries)));
}

/* (prm, ex, ey, start, len, scratch) -> rounds.  The reduction above on
   buckets laid out by the caller in ex/ey (start/len are OCaml int
   arrays; len is updated), so tests can aim hand-built buckets at it.
   The OCaml side checks the layout before it calls. */
CAMLprim value zkdet_msm_reduce(value vprm, value vex, value vey,
                                value vstart, value vlen, value vscratch)
{
  fld F_;
  load_fld(vprm, &F_);
  size_t nb = Wosize_val(vstart), total = 0;
  for (size_t b = 0; b < nb; b++) total += Long_val(Field(vlen, b));
  buckets B;
  reduce_bind(&B, (unsigned char *)Bytes_val(vscratch), nb, total);
  B.ex = (unsigned char *)Bytes_val(vex);
  B.ey = (unsigned char *)Bytes_val(vey);
  for (size_t b = 0; b < nb; b++) {
    B.start[b] = (uint32_t)Long_val(Field(vstart, b));
    B.len[b] = (uint32_t)Long_val(Field(vlen, b));
  }
  long rounds = reduce_buckets(&F_, &B);
  for (size_t b = 0; b < nb; b++) Field(vlen, b) = Val_long(B.len[b]);
  return Val_long(rounds);
}

CAMLprim value zkdet_msm_reduce_bc(value *argv, int argn)
{
  (void)argn;
  return zkdet_msm_reduce(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5]);
}

/* (prm, dst, a): dst <- 1 / a (0 for 0) by the rounds' Fermat inversion;
   both are 32-byte cells.  The tests hold it to the field's own. */
CAMLprim value zkdet_msm_inv(value vprm, value vdst, value va)
{
  fld F_;
  uint64_t a[4], t[4];
  load_fld(vprm, &F_);
  ld4((const unsigned char *)Bytes_val(va), 0, a);
  inv4(&F_, t, a);
  st4((unsigned char *)Bytes_val(vdst), 0, t);
  return Val_unit;
}
