/* Number primitives behind Json: an exact %.17g for the common range in
   integer arithmetic, and float_of_string's parse of a number token read
   in place from a byte buffer.

   %.17g: for finite |x| in [1e-4, 1e17) the 17 significant digits are
   round-half-even(m * 10^p / 2^s) for x = m * 2^-s and p = 16 - X, X the
   decimal exponent; m < 2^53 and 10^p <= 10^20 keep the product below
   2^120, so it is exact in unsigned 128 bits.  %g then prints %f-style
   (X in [-4, 16] here) with trailing fraction zeros and a bare point
   removed.  Every other value, and every value on a compiler without
   __int128, goes through caml_format_float, which is what Printf uses. */

#define CAML_NAME_SPACE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

extern value caml_format_float(value fmt, value arg);

#if defined(__SIZEOF_INT128__)
typedef unsigned __int128 u128;

static const uint64_t pow10_u64[20] = {1ULL,
                                       10ULL,
                                       100ULL,
                                       1000ULL,
                                       10000ULL,
                                       100000ULL,
                                       1000000ULL,
                                       10000000ULL,
                                       100000000ULL,
                                       1000000000ULL,
                                       10000000000ULL,
                                       100000000000ULL,
                                       1000000000000ULL,
                                       10000000000000ULL,
                                       100000000000000ULL,
                                       1000000000000000ULL,
                                       10000000000000000ULL,
                                       100000000000000000ULL,
                                       1000000000000000000ULL,
                                       10000000000000000000ULL};

/* 10^p for 0 <= p <= 38 */
static u128 pow10_u128(int p) {
  return p < 20 ? (u128)pow10_u64[p] : (u128)pow10_u64[19] * pow10_u64[p - 19];
}

static const double pow10_dbl[] = {1e-4, 1e-3, 1e-2, 1e-1, 1e0,  1e1,  1e2,
                                   1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,
                                   1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16};

/* Writes %.17g of x into out (at least 24 bytes) and returns its length,
   or 0 when x is outside the integer path's range. */
static int g17(double x, char *out) {
  const uint64_t e16 = 10000000000000000ULL, e17 = 100000000000000000ULL;
  double a = fabs(x);
  uint64_t bits, m, d;
  int e, X, iter;
  char digits[17];
  char *o = out;
  int nd, k;

  if (!(a >= 1e-4 && a < 1e17)) return 0;
  memcpy(&bits, &a, sizeof bits);
  m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52); /* a >= 1e-4: normal */
  e = (int)(bits >> 52) - 1075;                    /* a = m * 2^e */
  X = 0;
  while (X > -4 && a < pow10_dbl[X + 4]) X--;
  while (X < 16 && a >= pow10_dbl[X + 5]) X++;
  /* pow10_dbl below 1 is inexact, so X may be off by one: settle it on
     the exact digits. */
  for (iter = 0;; iter++) {
    int p = 16 - X;
    u128 n, q;
    if (iter > 3 || p < 0 || p > 20) return 0;
    n = (u128)m * pow10_u128(p);
    if (e >= 0) {
      q = n << e;
    } else {
      int s = -e;
      u128 rem, half;
      q = n >> s;
      rem = n - (q << s);
      half = (u128)1 << (s - 1);
      if (rem > half || (rem == half && (q & 1))) q++;
    }
    if (q < e16) {
      X--;
    } else if (q > e17) {
      X++;
    } else if (q == e17) { /* rounded up to the next power of ten */
      X++;
      d = e16;
      break;
    } else {
      d = (uint64_t)q;
      break;
    }
  }
  for (k = 16; k >= 0; k--) {
    digits[k] = (char)('0' + d % 10);
    d /= 10;
  }
  nd = 17;
  while (digits[nd - 1] == '0') nd--;
  if (x < 0) *o++ = '-';
  if (X >= 0) {
    memcpy(o, digits, X + 1);
    o += X + 1;
    if (nd > X + 1) {
      *o++ = '.';
      memcpy(o, digits + X + 1, nd - X - 1);
      o += nd - X - 1;
    }
  } else {
    *o++ = '0';
    *o++ = '.';
    for (k = 0; k < -X - 1; k++) *o++ = '0';
    memcpy(o, digits, nd);
    o += nd;
  }
  return (int)(o - out);
}
#else
static int g17(double x, char *out) {
  (void)x;
  (void)out;
  return 0;
}
#endif

static value g17_fallback(value fmt, double x) {
  CAMLparam1(fmt);
  CAMLlocal1(boxed);
  boxed = caml_copy_double(x);
  CAMLreturn(caml_format_float(fmt, boxed));
}

/* [fmt] is "%.17g"; it is only read on the fallback path. */
CAMLprim value archpred_json_g17(value fmt, double x) {
  char buf[32];
  int n = g17(x, buf);
  if (n > 0) return caml_alloc_initialized_string(n, buf);
  return g17_fallback(fmt, x);
}

CAMLprim value archpred_json_g17_byte(value fmt, value x) {
  return archpred_json_g17(fmt, Double_val(x));
}

#if defined(__SIZEOF_INT128__)
static int bit_length(u128 v) {
  uint64_t hi = (uint64_t)(v >> 64), lo = (uint64_t)v;
  return hi ? 128 - __builtin_clzll(hi) : lo ? 64 - __builtin_clzll(lo) : 0;
}

/* Round q (more than 53 significant bits) to 53 bits, half to even, with
   [sticky] set when a nonzero remainder lies below q's last bit, and
   return the value times 2^e2. */
static double round_to_double(u128 q, int sticky, int e2) {
  int t = bit_length(q) - 53;
  u128 rest = q & (((u128)1 << t) - 1), half = (u128)1 << (t - 1);
  uint64_t m = (uint64_t)(q >> t);
  if (rest > half || (rest == half && (sticky || (m & 1)))) m++;
  return ldexp((double)m, e2 + t);
}

/* The exactly rounded value of a decimal token in the shape strtod
   reads ([sign] digits [. digits] [e [sign] digits]) when at most 19
   significant digits times 10^x fit the integer method: w * 10^x for
   0 <= x <= 19, or w / 10^k by one 128-bit division for 1 <= k <= 21.
   Returns 0 for any other token, which then goes to strtod.  %.17g's
   tokens take this path for every |x| in [1e-5, 1e36), and it is
   cheaper than strtod on them (DESIGN §5h has the measurement). */
static int decimal_fast(const char *s, intnat len, double *out) {
  const char *p = s, *end = s + len;
  uint64_t w = 0;
  int neg = 0, digits = 0, sig = 0, frac = 0, ex = 0, ex_neg = 0, x;
  if (p < end && (*p == '-' || *p == '+')) neg = *p++ == '-';
  for (; p < end && *p >= '0' && *p <= '9'; p++, digits++)
    if (sig > 0 || *p != '0') {
      if (++sig > 19) return 0;
      w = 10 * w + (uint64_t)(*p - '0');
    }
  if (p < end && *p == '.')
    for (p++; p < end && *p >= '0' && *p <= '9'; p++, digits++, frac++)
      if (sig > 0 || *p != '0') {
        if (++sig > 19) return 0;
        w = 10 * w + (uint64_t)(*p - '0');
      }
  if (digits == 0) return 0;
  if (p < end && (*p == 'e' || *p == 'E')) {
    const char *q;
    p++;
    if (p < end && (*p == '-' || *p == '+')) ex_neg = *p++ == '-';
    q = p;
    for (; p < end && *p >= '0' && *p <= '9'; p++)
      if (ex < 10000) ex = 10 * ex + (*p - '0');
    if (p == q) return 0;
  }
  if (p != end) return 0;
  x = (ex_neg ? -ex : ex) - frac;
  if (w == 0) {
    *out = neg ? -0.0 : 0.0;
    return 1;
  }
  if (x >= 0) {
    u128 n;
    if (x > 19) return 0;
    n = (u128)w * pow10_u128(x);
    *out = bit_length(n) <= 53 ? (double)(uint64_t)n : round_to_double(n, 0, 0);
  } else {
    u128 den, num, q;
    int s;
    if (x < -21) return 0;
    den = pow10_u128(-x);
    /* q = w * 2^s / 10^k has 55 or 56 bits; w * 2^s and 10^k * 2^-s
       stay below 2^128 */
    s = 55 + bit_length(den) - bit_length((u128)w);
    num = s >= 0 ? (u128)w << s : (u128)w;
    if (s < 0) den <<= -s;
    q = num / den;
    *out = round_to_double(q, num - q * den != 0, -s);
  }
  if (neg) *out = -*out;
  return 1;
}
#endif

/* float_of_string of b.[i..j), or NaN when it rejects the text.  Callers
   pass number tokens ([0-9+-.eE] only): no '_', no hex prefix, nothing
   strtod would read as nan, so strtod over the copied token is exactly
   caml_float_of_string.  The common decimal shapes are rounded exactly
   in integer arithmetic first (the same bits: both round correctly).
   Out-of-range indices also give NaN. */
CAMLprim double archpred_json_strtod(value b, intnat i, intnat j) {
  char stack[64];
  char *buf, *end;
  intnat len = j - i;
  double d;
  if (i < 0 || len <= 0 || (uintnat)j > caml_string_length(b)) return NAN;
#if defined(__SIZEOF_INT128__)
  if (decimal_fast((const char *)Bytes_val(b) + i, len, &d)) return d;
#endif
  buf = len < (intnat)sizeof stack ? stack : malloc(len + 1);
  if (buf == NULL) return NAN;
  memcpy(buf, Bytes_val(b) + i, len);
  buf[len] = 0;
  d = strtod(buf, &end);
  if (end != buf + len) d = NAN;
  if (buf != stack) free(buf);
  return d;
}

CAMLprim value archpred_json_strtod_byte(value b, value i, value j) {
  return caml_copy_double(archpred_json_strtod(b, Long_val(i), Long_val(j)));
}
