/* SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104) for lib/crypto/sha256.ml.

   Two compression functions produce identical bytes: a portable C one and,
   on x86-64, one built on the SHA extensions. The accelerated one is chosen
   once, by [shoalpp_sha256_select_kernel] at module initialisation (before
   any domain starts), and only when CPUID reports the extensions and a
   known-answer self-test passes. After that the choice is only read.

   A streaming context is an OCaml bytes value holding a [struct ctx]; the
   HMAC key schedule is an OCaml string holding the inner and outer
   midstates. Neither is ever read or written outside this file. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SHOALPP_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

typedef void (*compress_fn)(uint32_t h[8], const uint8_t *blocks, size_t nblocks);

struct ctx {
  uint32_t h[8];
  uint64_t total; /* bytes fed so far */
  uint32_t buf_len;
  uint32_t finalized;
  uint8_t buf[64];
};

static const uint32_t K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

static const uint32_t IV[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

/* ------------------------------------------------------------------ */
/* Portable kernel */

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static inline uint32_t load_be32(const uint8_t *p) {
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline void store_be32(uint8_t *p, uint32_t v) {
  p[0] = (uint8_t)(v >> 24);
  p[1] = (uint8_t)(v >> 16);
  p[2] = (uint8_t)(v >> 8);
  p[3] = (uint8_t)v;
}

static void compress_portable(uint32_t h[8], const uint8_t *blocks, size_t nblocks) {
  uint32_t w[64];
  for (; nblocks > 0; nblocks--, blocks += 64) {
    for (int i = 0; i < 16; i++) w[i] = load_be32(blocks + (4 * i));
    for (int i = 16; i < 64; i++) {
      uint32_t s0 = ROTR(w[i - 15], 7) ^ ROTR(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = ROTR(w[i - 2], 17) ^ ROTR(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; i++) {
      uint32_t t1 = hh + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25)) + ((e & f) ^ (~e & g)) + K[i] + w[i];
      uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
  }
}

/* ------------------------------------------------------------------ */
/* SHA extensions kernel (x86-64) */

#ifdef SHOALPP_SHA_NI

/* The SHA round instructions keep the state as two vectors, ABEF and CDGH,
   and take four message-plus-constant words per pair of rounds. Group [g]
   covers rounds 4g..4g+3; from g = 4 on, its message words come from the
   four previous groups (msg1 adds sigma0, alignr supplies w[t-7], msg2 adds
   sigma1). */
__attribute__((target("sha,sse4.1"))) static void compress_sha_ni(uint32_t h[8], const uint8_t *blocks,
                                                                  size_t nblocks) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&h[0]), 0xB1); /* CDAB */
  __m128i state1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&h[4]), 0x1B); /* EFGH */
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8); /* ABEF */
  state1 = _mm_blend_epi16(state1, tmp, 0xF0); /* CDGH */

  for (; nblocks > 0; nblocks--, blocks += 64) {
    __m128i abef = state0, cdgh = state1;
    __m128i m[4];
    for (int i = 0; i < 4; i++)
      m[i] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(blocks + (16 * i))), bswap);
#pragma GCC unroll 16
    for (int g = 0; g < 16; g++) {
      if (g >= 4) {
        __m128i x = _mm_sha256msg1_epu32(m[g & 3], m[(g + 1) & 3]);
        x = _mm_add_epi32(x, _mm_alignr_epi8(m[(g + 3) & 3], m[(g + 2) & 3], 4));
        m[g & 3] = _mm_sha256msg2_epu32(x, m[(g + 3) & 3]);
      }
      __m128i wk = _mm_add_epi32(m[g & 3], _mm_loadu_si128((const __m128i *)&K[4 * g]));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0E));
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B); /* FEBA */
  state1 = _mm_shuffle_epi32(state1, 0xB1); /* DCHG */
  _mm_storeu_si128((__m128i *)&h[0], _mm_blend_epi16(tmp, state1, 0xF0)); /* DCBA */
  _mm_storeu_si128((__m128i *)&h[4], _mm_alignr_epi8(state1, tmp, 8)); /* HGFE */
}

static int cpu_has_sha_ni(void) {
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  int sse41 = (c >> 19) & 1, ssse3 = (c >> 9) & 1;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return sse41 && ssse3 && ((b >> 29) & 1);
}

#endif

/* ------------------------------------------------------------------ */
/* Streaming over one compression function */

static void ctx_init(struct ctx *c, const uint32_t h[8], uint64_t total) {
  memcpy(c->h, h, sizeof c->h);
  c->total = total;
  c->buf_len = 0;
  c->finalized = 0;
}

static void ctx_feed(compress_fn compress, struct ctx *c, const uint8_t *src, size_t len) {
  c->total += len;
  if (c->buf_len > 0) {
    size_t take = 64 - c->buf_len;
    if (take > len) take = len;
    memcpy(c->buf + c->buf_len, src, take);
    c->buf_len += (uint32_t)take;
    src += take;
    len -= take;
    if (c->buf_len < 64) return;
    compress(c->h, c->buf, 1);
    c->buf_len = 0;
  }
  if (len >= 64) {
    compress(c->h, src, len / 64);
    src += len & ~(size_t)63;
    len &= 63;
  }
  memcpy(c->buf, src, len);
  c->buf_len = (uint32_t)len;
}

/* Padding (0x80, zeros, 64-bit big-endian bit length), then the digest. */
static void ctx_finish(compress_fn compress, struct ctx *c, uint8_t out[32]) {
  uint32_t used = c->buf_len;
  c->buf[used++] = 0x80;
  if (used > 56) {
    memset(c->buf + used, 0, 64 - used);
    compress(c->h, c->buf, 1);
    used = 0;
  }
  memset(c->buf + used, 0, 56 - used);
  uint64_t bits = c->total * 8;
  store_be32(c->buf + 56, (uint32_t)(bits >> 32));
  store_be32(c->buf + 60, (uint32_t)bits);
  compress(c->h, c->buf, 1);
  for (int i = 0; i < 8; i++) store_be32(out + (4 * i), c->h[i]);
  c->finalized = 1;
}

static void digest(compress_fn compress, const uint8_t *msg, size_t len, uint8_t out[32]) {
  struct ctx c;
  ctx_init(&c, IV, 0);
  ctx_feed(compress, &c, msg, len);
  ctx_finish(compress, &c, out);
}

/* The HMAC key schedule: the inner then the outer midstate. */
struct hmac_key {
  uint32_t inner[8];
  uint32_t outer[8];
};

static void hmac_schedule(compress_fn compress, const uint8_t *key, size_t len, struct hmac_key *k) {
  uint8_t block[64], pad[64];
  memset(block, 0, sizeof block);
  if (len > 64)
    digest(compress, key, len, block);
  else
    memcpy(block, key, len);
  for (int i = 0; i < 64; i++) pad[i] = block[i] ^ 0x36;
  memcpy(k->inner, IV, sizeof k->inner);
  compress(k->inner, pad, 1);
  for (int i = 0; i < 64; i++) pad[i] = block[i] ^ 0x5c;
  memcpy(k->outer, IV, sizeof k->outer);
  compress(k->outer, pad, 1);
}

static void hmac(compress_fn compress, const struct hmac_key *k, const uint8_t *msg, size_t len,
                 uint8_t out[32]) {
  struct ctx c;
  uint8_t inner[32];
  ctx_init(&c, k->inner, 64);
  ctx_feed(compress, &c, msg, len);
  ctx_finish(compress, &c, inner);
  ctx_init(&c, k->outer, 64);
  ctx_feed(compress, &c, inner, sizeof inner);
  ctx_finish(compress, &c, out);
}

/* ------------------------------------------------------------------ */
/* Kernel choice */

enum { KERNEL_PORTABLE = 0, KERNEL_SHA_NI = 1 };

/* Written only by [shoalpp_sha256_select_kernel], at module initialisation. */
static compress_fn active = compress_portable;

/* Known answers: SHA-256("abc") and the two-block FIPS 180-4 vector. */
static int self_test(compress_fn compress) {
  static const char *msg2 = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  static const uint8_t want1[32] = {
      0xba, 0x78, 0x16, 0xbf, 0x8f, 0x01, 0xcf, 0xea, 0x41, 0x41, 0x40, 0xde, 0x5d, 0xae, 0x22, 0x23,
      0xb0, 0x03, 0x61, 0xa3, 0x96, 0x17, 0x7a, 0x9c, 0xb4, 0x10, 0xff, 0x61, 0xf2, 0x00, 0x15, 0xad,
  };
  static const uint8_t want2[32] = {
      0x24, 0x8d, 0x6a, 0x61, 0xd2, 0x06, 0x38, 0xb8, 0xe5, 0xc0, 0x26, 0x93, 0x0c, 0x3e, 0x60, 0x39,
      0xa3, 0x3c, 0xe4, 0x59, 0x64, 0xff, 0x21, 0x67, 0xf6, 0xec, 0xed, 0xd4, 0x19, 0xdb, 0x06, 0xc1,
  };
  uint8_t out[32];
  digest(compress, (const uint8_t *)"abc", 3, out);
  if (memcmp(out, want1, 32) != 0) return 0;
  digest(compress, (const uint8_t *)msg2, strlen(msg2), out);
  return memcmp(out, want2, 32) == 0;
}

/* The kernel [which] if it was compiled in and this CPU can run it, NULL
   otherwise. */
static compress_fn runnable_kernel(int which) {
  switch (which) {
  case KERNEL_PORTABLE:
    return compress_portable;
#ifdef SHOALPP_SHA_NI
  case KERNEL_SHA_NI:
    return cpu_has_sha_ni() ? compress_sha_ni : NULL;
#endif
  default:
    return NULL;
  }
}

value shoalpp_sha256_select_kernel(value unit) {
  (void)unit;
  compress_fn k = runnable_kernel(KERNEL_SHA_NI);
  int accelerated = k != NULL && self_test(k);
  active = accelerated ? k : compress_portable;
  return caml_copy_string(accelerated ? "sha-ni" : "portable");
}

/* ------------------------------------------------------------------ */
/* OCaml entry points */

#define Ctx_val(v) ((struct ctx *)Bytes_val(v))

value shoalpp_sha256_init(value unit) {
  (void)unit;
  value v = caml_alloc_string(sizeof(struct ctx));
  ctx_init(Ctx_val(v), IV, 0);
  return v;
}

/* noalloc; false (and no effect) on a finalized context. */
value shoalpp_sha256_feed(value vctx, value src) {
  struct ctx *c = Ctx_val(vctx);
  if (c->finalized) return Val_false;
  ctx_feed(active, c, Bytes_val(src), caml_string_length(src));
  return Val_true;
}

/* noalloc; false (and no effect) on a finalized context. */
value shoalpp_sha256_finalize(value vctx, value out) {
  struct ctx *c = Ctx_val(vctx);
  if (c->finalized) return Val_false;
  ctx_finish(active, c, Bytes_val(out));
  return Val_true;
}

/* Each result is computed into a C buffer before the one allocation, so no
   OCaml value is read after the heap may have moved. */
static value alloc_digest(const uint8_t d[32]) {
  value v = caml_alloc_string(32);
  memcpy(Bytes_val(v), d, 32);
  return v;
}

value shoalpp_sha256_digest(value msg) {
  uint8_t d[32];
  digest(active, (const uint8_t *)String_val(msg), caml_string_length(msg), d);
  return alloc_digest(d);
}

/* The caller (Sha256.digest_sub) has checked [pos, pos + len) lies in the
   string. */
value shoalpp_sha256_digest_sub(value msg, value vpos, value vlen) {
  uint8_t d[32];
  digest(active, (const uint8_t *)String_val(msg) + Long_val(vpos), (size_t)Long_val(vlen), d);
  return alloc_digest(d);
}

value shoalpp_sha256_hmac_key(value key) {
  struct hmac_key k;
  hmac_schedule(active, (const uint8_t *)String_val(key), caml_string_length(key), &k);
  value v = caml_alloc_string(sizeof k);
  memcpy(Bytes_val(v), &k, sizeof k);
  return v;
}

value shoalpp_sha256_hmac(value key, value msg) {
  struct hmac_key k;
  uint8_t d[32];
  memcpy(&k, String_val(key), sizeof k);
  hmac(active, &k, (const uint8_t *)String_val(msg), caml_string_length(msg), d);
  return alloc_digest(d);
}

/* ------------------------------------------------------------------ */
/* Test-only entry points: run one named kernel whatever [active] is, so a
   test can compare every compiled kernel on any CPU. They skip the
   self-test, so a broken kernel fails its vectors instead of hiding behind
   the portable fallback. */

static compress_fn test_kernel(value which) {
  compress_fn k = runnable_kernel(Int_val(which));
  if (k == NULL) caml_invalid_argument("Sha256: kernel not available on this CPU");
  return k;
}

value shoalpp_sha256_test_available(value which) {
  return Val_bool(runnable_kernel(Int_val(which)) != NULL);
}

value shoalpp_sha256_test_digest(value which, value msg) {
  uint8_t d[32];
  digest(test_kernel(which), (const uint8_t *)String_val(msg), caml_string_length(msg), d);
  return alloc_digest(d);
}

value shoalpp_sha256_test_hmac(value which, value key, value msg) {
  compress_fn k = test_kernel(which);
  struct hmac_key sched;
  uint8_t d[32];
  hmac_schedule(k, (const uint8_t *)String_val(key), caml_string_length(key), &sched);
  hmac(k, &sched, (const uint8_t *)String_val(msg), caml_string_length(msg), d);
  return alloc_digest(d);
}
