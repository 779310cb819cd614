/* SHA-256 block compression (FIPS 180-4) for sha256.ml.
 *
 * zkdet_sha256_blocks(k, h, src, off, n) compresses the n consecutive
 * 64-byte blocks of src starting at byte off into the chaining state h.
 *
 * - k is the OCaml int array of the 64 round constants (derived in
 *   sha256.ml, not transcribed here).
 * - h is a 32-byte Bytes holding the eight state words big-endian, which
 *   is also the digest's byte order.
 * - Message and state words are assembled big-endian byte by byte, so
 *   the kernel is the same on every host and needs no byte-order
 *   fallback.
 *
 * The caller guarantees off + 64 * n <= length(src).  The stub is
 * [@@noalloc] on the OCaml side: it never allocates on the OCaml heap,
 * raises or calls back into OCaml.  All scratch (the message schedule)
 * lives on the C stack, so concurrent calls from several domains on
 * distinct contexts are safe.
 */

#include <caml/mlvalues.h>
#include <stdint.h>

static inline uint32_t rotr(uint32_t x, int n)
{
  return (x >> n) | (x << (32 - n));
}

static inline uint32_t ld32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) |
         ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline void st32(unsigned char *p, uint32_t x)
{
  p[0] = (unsigned char)(x >> 24);
  p[1] = (unsigned char)(x >> 16);
  p[2] = (unsigned char)(x >> 8);
  p[3] = (unsigned char)x;
}

value zkdet_sha256_blocks(value vk, value vh, value vsrc, value voff,
                          value vn)
{
  const unsigned char *src =
      (const unsigned char *)String_val(vsrc) + Long_val(voff);
  unsigned char *hb = Bytes_val(vh);
  intnat n = Long_val(vn);
  uint32_t h[8], w[64];

  for (int i = 0; i < 8; i++) h[i] = ld32(hb + 4 * i);
  for (intnat blk = 0; blk < n; blk++, src += 64) {
    for (int t = 0; t < 16; t++) w[t] = ld32(src + 4 * t);
    for (int t = 16; t < 64; t++) {
      uint32_t s0 = rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
      uint32_t s1 = rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int t = 0; t < 64; t++) {
      uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = hh + s1 + ch + (uint32_t)Long_val(Field(vk, t)) + w[t];
      uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
  }
  for (int i = 0; i < 8; i++) st32(hb + 4 * i, h[i]);
  return Val_unit;
}
