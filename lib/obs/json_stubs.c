/* Number primitives behind Json: %.17g written in place, and one scan of
   a number token that finds its end, classifies it and converts it.
   Neither allocates on the OCaml heap.

   %.17g: for finite |x| in [1e-4, 1e17) the 17 significant digits are
   round-half-even(m * 10^p / 2^s) for x = m * 2^-s and p = 16 - X, X the
   decimal exponent; m < 2^53 and 10^p <= 10^20 keep the product below
   2^120, so it is exact in unsigned 128 bits.  %g then prints %f-style
   (X in [-4, 16] here) with trailing fraction zeros and a bare point
   removed.  Every other value, and every value on a compiler without
   __int128, is left to the caller, which formats it with
   caml_format_float (the primitive behind Printf).

   Number tokens: an int is what int_of_string accepts of a token made of
   [0-9+-.eE] (an optional sign, then decimal digits within the OCaml int
   range); any other token gets float_of_string's bits.  Tokens of at most
   19 significant digits w times 10^q, q in [-27, 55], are rounded exactly
   by the Eisel-Lemire method; every other token goes to strtod, which is
   what float_of_string calls.  Both round correctly, so the bits agree. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

static const char two_digits[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The eight decimal digits of v < 10^8, two at a time. */
static inline void put8(char *o, uint32_t v) {
  uint32_t a = v / 10000, b = v % 10000;
  memcpy(o, two_digits + 2 * (a / 100), 2);
  memcpy(o + 2, two_digits + 2 * (a % 100), 2);
  memcpy(o + 4, two_digits + 2 * (b / 100), 2);
  memcpy(o + 6, two_digits + 2 * (b % 100), 2);
}

/* Writes %.17g of x into out (at least 24 bytes) and returns its length,
   or 0 when x is outside the integer path's range. */
static int g17(double x, char *out) {
  const uint64_t e16 = 10000000000000000ULL, e17 = 100000000000000000ULL;
  double a = fabs(x);
  uint64_t bits, m, d;
  int e, X, iter;
  char buf[48], *o;
  int nd;

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
  /* The text is built in [buf] with fixed-size copies, then copied out. */
  memset(buf, '0', 8);
  buf[0] = x < 0 ? '-' : '0';
  o = buf + (x < 0);
  if (X < 0) {
    o[1] = '.';
    o += 1 - X; /* "0." and -X - 1 zeros */
  }
  /* d < 10^17: one digit, then two groups of eight */
  o[0] = (char)('0' + d / 10000000000000000ULL);
  d %= 10000000000000000ULL;
  put8(o + 1, (uint32_t)(d / 100000000));
  put8(o + 9, (uint32_t)(d % 100000000));
  nd = 17;
  while (o[nd - 1] == '0') nd--;
  if (X >= 0 && nd > X + 1) { /* the point goes after digit X */
    memmove(o + X + 2, o + X + 1, 16);
    o[X + 1] = '.';
    nd++;
  } else if (X >= 0) {
    nd = X + 1;
  }
  nd += (int)(o - buf);
  memcpy(out, buf, nd);
  return nd;
}
#else
static int g17(double x, char *out) {
  (void)x;
  (void)out;
  return 0;
}
#endif

/* Writes %.17g of finite x at b.[pos..] and returns its length, or
   returns 0 when the caller must format x: outside the integer path's
   range, fewer than 24 bytes of room, or [mode] 1 (the tests' forced
   fallback). */
CAMLprim intnat archpred_json_put_g17(value b, intnat pos, double x, intnat mode) {
  if ((mode & 1) || pos < 0 || (uintnat)pos + 24 > caml_string_length(b)) return 0;
  return g17(x, (char *)Bytes_val(b) + pos);
}

CAMLprim value archpred_json_put_g17_byte(value b, value pos, value x, value mode) {
  return Val_long(archpred_json_put_g17(b, Long_val(pos), Double_val(x), Long_val(mode)));
}

/* ------------------------------------------------------------------ */
/* Number tokens                                                      */
/* ------------------------------------------------------------------ */

static int is_number_char(unsigned char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
         c == 'E';
}

/* int_of_string of a number token: an optional sign, then at least one
   decimal digit, within [Min_long, Max_long]. */
static int int_token(const unsigned char *s, intnat len, intnat *out) {
  intnat k = 0;
  int neg = 0;
  uint64_t acc = 0, limit;
  if (len > 0 && (s[0] == '-' || s[0] == '+')) {
    neg = s[0] == '-';
    k = 1;
  }
  if (k >= len) return 0;
  limit = neg ? (uint64_t)Max_long + 1 : (uint64_t)Max_long;
  for (; k < len; k++) {
    unsigned d = (unsigned)(s[k] - '0');
    if (d > 9 || acc > (limit - d) / 10) return 0;
    acc = 10 * acc + d;
  }
  *out = neg ? (intnat)(0 - acc) : (intnat)acc;
  return 1;
}

#if defined(__SIZEOF_INT128__)
/* fast_float's table of 5^q for q in [-27, 55]: the 128 leading bits of
   5^q for q >= 0 (exact: 5^55 < 2^128), and floor(2^b / 5^-q) + 1 with
   b = 127 + bit length of 5^-q for q < 0. */
#define Q_MIN (-27)
#define Q_MAX 55
static const uint64_t pow5_128[Q_MAX - Q_MIN + 1][2] = {
    {0x9e74d1b791e07e48ULL, 0x775ea264cf55347eULL}, /* -27 */
    {0xc612062576589ddaULL, 0x95364afe032a819eULL}, /* -26 */
    {0xf79687aed3eec551ULL, 0x3a83ddbd83f52205ULL}, /* -25 */
    {0x9abe14cd44753b52ULL, 0xc4926a9672793543ULL}, /* -24 */
    {0xc16d9a0095928a27ULL, 0x75b7053c0f178294ULL}, /* -23 */
    {0xf1c90080baf72cb1ULL, 0x5324c68b12dd6339ULL}, /* -22 */
    {0x971da05074da7beeULL, 0xd3f6fc16ebca5e04ULL}, /* -21 */
    {0xbce5086492111aeaULL, 0x88f4bb1ca6bcf585ULL}, /* -20 */
    {0xec1e4a7db69561a5ULL, 0x2b31e9e3d06c32e6ULL}, /* -19 */
    {0x9392ee8e921d5d07ULL, 0x3aff322e62439fd0ULL}, /* -18 */
    {0xb877aa3236a4b449ULL, 0x09befeb9fad487c3ULL}, /* -17 */
    {0xe69594bec44de15bULL, 0x4c2ebe687989a9b4ULL}, /* -16 */
    {0x901d7cf73ab0acd9ULL, 0x0f9d37014bf60a11ULL}, /* -15 */
    {0xb424dc35095cd80fULL, 0x538484c19ef38c95ULL}, /* -14 */
    {0xe12e13424bb40e13ULL, 0x2865a5f206b06fbaULL}, /* -13 */
    {0x8cbccc096f5088cbULL, 0xf93f87b7442e45d4ULL}, /* -12 */
    {0xafebff0bcb24aafeULL, 0xf78f69a51539d749ULL}, /* -11 */
    {0xdbe6fecebdedd5beULL, 0xb573440e5a884d1cULL}, /* -10 */
    {0x89705f4136b4a597ULL, 0x31680a88f8953031ULL}, /* -9 */
    {0xabcc77118461cefcULL, 0xfdc20d2b36ba7c3eULL}, /* -8 */
    {0xd6bf94d5e57a42bcULL, 0x3d32907604691b4dULL}, /* -7 */
    {0x8637bd05af6c69b5ULL, 0xa63f9a49c2c1b110ULL}, /* -6 */
    {0xa7c5ac471b478423ULL, 0x0fcf80dc33721d54ULL}, /* -5 */
    {0xd1b71758e219652bULL, 0xd3c36113404ea4a9ULL}, /* -4 */
    {0x83126e978d4fdf3bULL, 0x645a1cac083126eaULL}, /* -3 */
    {0xa3d70a3d70a3d70aULL, 0x3d70a3d70a3d70a4ULL}, /* -2 */
    {0xccccccccccccccccULL, 0xcccccccccccccccdULL}, /* -1 */
    {0x8000000000000000ULL, 0x0000000000000000ULL}, /* 0 */
    {0xa000000000000000ULL, 0x0000000000000000ULL}, /* 1 */
    {0xc800000000000000ULL, 0x0000000000000000ULL}, /* 2 */
    {0xfa00000000000000ULL, 0x0000000000000000ULL}, /* 3 */
    {0x9c40000000000000ULL, 0x0000000000000000ULL}, /* 4 */
    {0xc350000000000000ULL, 0x0000000000000000ULL}, /* 5 */
    {0xf424000000000000ULL, 0x0000000000000000ULL}, /* 6 */
    {0x9896800000000000ULL, 0x0000000000000000ULL}, /* 7 */
    {0xbebc200000000000ULL, 0x0000000000000000ULL}, /* 8 */
    {0xee6b280000000000ULL, 0x0000000000000000ULL}, /* 9 */
    {0x9502f90000000000ULL, 0x0000000000000000ULL}, /* 10 */
    {0xba43b74000000000ULL, 0x0000000000000000ULL}, /* 11 */
    {0xe8d4a51000000000ULL, 0x0000000000000000ULL}, /* 12 */
    {0x9184e72a00000000ULL, 0x0000000000000000ULL}, /* 13 */
    {0xb5e620f480000000ULL, 0x0000000000000000ULL}, /* 14 */
    {0xe35fa931a0000000ULL, 0x0000000000000000ULL}, /* 15 */
    {0x8e1bc9bf04000000ULL, 0x0000000000000000ULL}, /* 16 */
    {0xb1a2bc2ec5000000ULL, 0x0000000000000000ULL}, /* 17 */
    {0xde0b6b3a76400000ULL, 0x0000000000000000ULL}, /* 18 */
    {0x8ac7230489e80000ULL, 0x0000000000000000ULL}, /* 19 */
    {0xad78ebc5ac620000ULL, 0x0000000000000000ULL}, /* 20 */
    {0xd8d726b7177a8000ULL, 0x0000000000000000ULL}, /* 21 */
    {0x878678326eac9000ULL, 0x0000000000000000ULL}, /* 22 */
    {0xa968163f0a57b400ULL, 0x0000000000000000ULL}, /* 23 */
    {0xd3c21bcecceda100ULL, 0x0000000000000000ULL}, /* 24 */
    {0x84595161401484a0ULL, 0x0000000000000000ULL}, /* 25 */
    {0xa56fa5b99019a5c8ULL, 0x0000000000000000ULL}, /* 26 */
    {0xcecb8f27f4200f3aULL, 0x0000000000000000ULL}, /* 27 */
    {0x813f3978f8940984ULL, 0x4000000000000000ULL}, /* 28 */
    {0xa18f07d736b90be5ULL, 0x5000000000000000ULL}, /* 29 */
    {0xc9f2c9cd04674edeULL, 0xa400000000000000ULL}, /* 30 */
    {0xfc6f7c4045812296ULL, 0x4d00000000000000ULL}, /* 31 */
    {0x9dc5ada82b70b59dULL, 0xf020000000000000ULL}, /* 32 */
    {0xc5371912364ce305ULL, 0x6c28000000000000ULL}, /* 33 */
    {0xf684df56c3e01bc6ULL, 0xc732000000000000ULL}, /* 34 */
    {0x9a130b963a6c115cULL, 0x3c7f400000000000ULL}, /* 35 */
    {0xc097ce7bc90715b3ULL, 0x4b9f100000000000ULL}, /* 36 */
    {0xf0bdc21abb48db20ULL, 0x1e86d40000000000ULL}, /* 37 */
    {0x96769950b50d88f4ULL, 0x1314448000000000ULL}, /* 38 */
    {0xbc143fa4e250eb31ULL, 0x17d955a000000000ULL}, /* 39 */
    {0xeb194f8e1ae525fdULL, 0x5dcfab0800000000ULL}, /* 40 */
    {0x92efd1b8d0cf37beULL, 0x5aa1cae500000000ULL}, /* 41 */
    {0xb7abc627050305adULL, 0xf14a3d9e40000000ULL}, /* 42 */
    {0xe596b7b0c643c719ULL, 0x6d9ccd05d0000000ULL}, /* 43 */
    {0x8f7e32ce7bea5c6fULL, 0xe4820023a2000000ULL}, /* 44 */
    {0xb35dbf821ae4f38bULL, 0xdda2802c8a800000ULL}, /* 45 */
    {0xe0352f62a19e306eULL, 0xd50b2037ad200000ULL}, /* 46 */
    {0x8c213d9da502de45ULL, 0x4526f422cc340000ULL}, /* 47 */
    {0xaf298d050e4395d6ULL, 0x9670b12b7f410000ULL}, /* 48 */
    {0xdaf3f04651d47b4cULL, 0x3c0cdd765f114000ULL}, /* 49 */
    {0x88d8762bf324cd0fULL, 0xa5880a69fb6ac800ULL}, /* 50 */
    {0xab0e93b6efee0053ULL, 0x8eea0d047a457a00ULL}, /* 51 */
    {0xd5d238a4abe98068ULL, 0x72a4904598d6d880ULL}, /* 52 */
    {0x85a36366eb71f041ULL, 0x47a6da2b7f864750ULL}, /* 53 */
    {0xa70c3c40a64e6c51ULL, 0x999090b65f67d924ULL}, /* 54 */
    {0xd0cf4b50cfe20765ULL, 0xfff4b4e3f741cf6dULL}, /* 55 */
};

/* w * 10^q exactly rounded, for w != 0 and q in [Q_MIN, Q_MAX], by the
   Eisel-Lemire method as fast_float implements it (Lemire, "Number
   Parsing at a Gigabyte per Second", 2021): the 128-bit product of w
   with the truncated 5^q settles the 53-bit significand, and for these q
   no product is ambiguous, so there is no fallback.  The range keeps
   every result normal and finite. */
static double eisel_lemire(uint64_t w, int q, int neg) {
  uint64_t hi, lo, m, bits;
  int lz, upper, shift, p2;
  u128 prod;
  double d;
  lz = __builtin_clzll(w);
  w <<= lz;
  prod = (u128)w * pow5_128[q - Q_MIN][0];
  hi = (uint64_t)(prod >> 64);
  lo = (uint64_t)prod;
  if ((hi & 0x1FF) == 0x1FF) { /* the low half of 5^q may carry into hi */
    uint64_t second = (uint64_t)(((u128)w * pow5_128[q - Q_MIN][1]) >> 64);
    lo += second;
    if (second > lo) hi++;
  }
  upper = (int)(hi >> 63);
  shift = upper + 9; /* 64 - 52 - 3 */
  m = hi >> shift;
  /* floor(q * log2(10)) + 63, plus the binary64 bias 1023; the division
     floors for negative q as the arithmetic shift does */
  p2 = (int)(((217706 * (int64_t)q) - (q < 0 ? 65535 : 0)) / 65536) + 63 + upper - lz + 1023;
  /* halfway between two doubles: only when 5^q fits in 64 bits */
  if (lo <= 1 && q >= -4 && q <= 23 && (m & 3) == 1 && (m << shift) == hi) m &= ~(uint64_t)1;
  m += m & 1;
  m >>= 1;
  if (m >= (uint64_t)1 << 53) {
    m = (uint64_t)1 << 52;
    p2++;
  }
  bits = (m & (((uint64_t)1 << 52) - 1)) | ((uint64_t)p2 << 52) | ((uint64_t)neg << 63);
  memcpy(&d, &bits, sizeof d);
  return d;
}
#endif

/* float_of_string of the number token s[0..len), or NaN when it rejects
   it.  A number token holds no '_', no hex prefix and nothing strtod
   reads as nan, so strtod over the copied token is exactly
   caml_float_of_string. */
static double strtod_token(const unsigned char *s, intnat len) {
  char stack[64];
  char *buf, *end;
  double d;
  buf = len < (intnat)sizeof stack ? stack : malloc(len + 1);
  if (buf == NULL) return NAN;
  memcpy(buf, s, len);
  buf[len] = 0;
  d = strtod(buf, &end);
  if (len == 0 || end != buf + len) d = NAN;
  if (buf != stack) free(buf);
  return d;
}

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define SWAR_DIGITS 1
/* fast_float's eight-digit steps, on eight bytes loaded little-endian */
static int eight_digits(uint64_t v) {
  return !(((v + 0x4646464646464646ULL) | (v - 0x3030303030303030ULL)) & 0x8080808080808080ULL);
}

static uint32_t parse_eight(uint64_t v) {
  v -= 0x3030303030303030ULL;
  v = (v * 10) + (v >> 8);
  v = (((v & 0x000000FF000000FFULL) * 0x000F424000000064ULL) +
       (((v >> 16) & 0x000000FF000000FFULL) * 0x0000271000000001ULL)) >>
      32;
  return (uint32_t)v;
}
#endif

enum { K_INT, K_FLOAT, K_BAD };
enum { M_INTS_AS_FLOATS = 1, M_FALLBACK = 2 };

#define DIGIT(c) ((unsigned)((c) - '0') <= 9)

/* Reads the number token s[i..j), j the end of the longest run of
   [0-9+-.eE] from i, in one pass when it has strtod's decimal shape
   ([sign] digits [. digits] [e [sign] digits]).  Returns its kind and
   sets *j, with the value in *iv (K_INT) or *d (K_FLOAT). */
static int scan_number(const unsigned char *s, intnat i, intnat n, int fallback, intnat *j,
                       intnat *iv, double *d) {
  const unsigned char *p = s + i, *end = s + n, *e0;
  uint64_t w = 0;
  int neg = 0, sig = 0, frac = 0, digits = 0, ex = 0, ex_neg = 0, is_int = 1, q;
  if (p < end && (*p == '-' || *p == '+')) neg = *p++ == '-';
  for (; p < end && *p == '0'; p++) digits++;
  for (; p < end && DIGIT(*p); p++, digits++, sig++) w = 10 * w + (uint64_t)(*p - '0');
  if (p < end && *p == '.') {
    is_int = 0;
    p++;
    if (sig == 0)
      for (; p < end && *p == '0'; p++) digits++, frac++;
#if defined(SWAR_DIGITS)
    while (sig <= 11 && end - p >= 8) {
      uint64_t v;
      memcpy(&v, p, sizeof v);
      if (!eight_digits(v)) break;
      w = 100000000 * w + parse_eight(v);
      p += 8, digits += 8, sig += 8, frac += 8;
    }
#endif
    for (; p < end && DIGIT(*p); p++, digits++, sig++, frac++) w = 10 * w + (uint64_t)(*p - '0');
  }
  if (p < end && (*p == 'e' || *p == 'E')) {
    is_int = 0;
    p++;
    if (p < end && (*p == '-' || *p == '+')) ex_neg = *p++ == '-';
    e0 = p;
    for (; p < end && DIGIT(*p); p++)
      if (ex < 10000) ex = 10 * ex + (*p - '0');
    if (p == e0) digits = 0; /* "1e", "1e+": not strtod's shape */
  }
  if (digits == 0 || (p < end && is_number_char(*p))) {
    /* outside the shape: the token runs on, and the reference rules
       decide (strtod rejects every such token, but it is asked) */
    while (p < end && is_number_char(*p)) p++;
    *j = p - s;
    if (int_token(s + i, *j - i, iv)) return K_INT;
    *d = strtod_token(s + i, *j - i);
    return isnan(*d) ? K_BAD : K_FLOAT;
  }
  *j = p - s;
  if (is_int && sig <= 19 && w <= (neg ? (uint64_t)Max_long + 1 : (uint64_t)Max_long)) {
    *iv = neg ? (intnat)(0 - w) : (intnat)w;
    return K_INT;
  }
  q = (ex_neg ? -ex : ex) - frac;
#if defined(__SIZEOF_INT128__)
  if (!fallback && sig <= 19) {
    if (w == 0) {
      *d = neg ? -0.0 : 0.0;
      return K_FLOAT;
    }
    if (q >= Q_MIN && q <= Q_MAX) {
      *d = eisel_lemire(w, q, neg);
      return K_FLOAT;
    }
  }
#else
  (void)fallback;
  (void)q;
#endif
  *d = strtod_token(s + i, *j - i);
  return isnan(*d) ? K_BAD : K_FLOAT;
}

/* Reads the number token at b.[i..n): the longest run of [0-9+-.eE] from
   i.  Returns (j << 2) | kind for the token b.[i..j): K_INT (its value
   stored in dst.(k) as its int64 bits, or converted to a double under
   M_INTS_AS_FLOATS), K_FLOAT (the double stored in dst.(k)), or K_BAD
   (not a number; dst untouched).  M_FALLBACK sends every float to
   strtod.  Indices outside b or a k outside dst also give K_BAD. */
CAMLprim intnat archpred_json_number(value b, intnat i, intnat n, value dst, intnat k,
                                     intnat mode) {
  intnat j = i, v = 0;
  double d = 0;
  int kind;
  if (i < 0 || n < i || (uintnat)n > caml_string_length(b)) return K_BAD;
  if (Tag_val(dst) != Double_array_tag || k < 0 ||
      (uintnat)k >= Wosize_val(dst) / Double_wosize)
    return (i << 2) | K_BAD;
  kind = scan_number((const unsigned char *)Bytes_val(b), i, n, (mode & M_FALLBACK) != 0, &j,
                     &v, &d);
  if (kind == K_INT) {
    if (mode & M_INTS_AS_FLOATS) {
      d = (double)v;
    } else {
      int64_t bits = v;
      memcpy(&d, &bits, sizeof d);
    }
  }
  if (kind != K_BAD) Store_double_flat_field(dst, k, d);
  return (j << 2) | kind;
}

CAMLprim value archpred_json_number_byte(value *argv, int argn) {
  (void)argn;
  return Val_long(archpred_json_number(argv[0], Long_val(argv[1]), Long_val(argv[2]),
                                       argv[3], Long_val(argv[4]), Long_val(argv[5])));
}
