/* The Gram matrix H'H of a row-major design (see incremental_ls.ml).
 *
 * One call adds rows [k0, k1) of the design into the upper-triangle
 * entries (a, b >= a) of Gram rows [a0, a1):
 *
 *   g[a][b] = g[a][b] + h[k][a] * h[k][b]        (k ascending)
 *
 * The caller zeroes g, walks k in ascending blocks and mirrors the
 * upper triangle at the end, so every entry is its ascending-k sum from
 * +0 whatever the blocking: an accumulator stored to g and loaded back
 * between blocks is the same double.  The AVX2 path puts consecutive b
 * in the lanes of a vector and register-blocks four a rows by two
 * vectors, so each loaded run of row k of the design serves four Gram
 * rows; the four-row block may also fill up to three entries below the
 * diagonal, which the mirror then overwrites with the same bits
 * (h[k][a] * h[k][b] and h[k][b] * h[k][a] round alike).
 *
 * The dune stanza compiles this file with -ffp-contract=off: a fused
 * multiply-add would change results in the last ulp. */

#include <caml/mlvalues.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

/* Rank-1 updates of one Gram row at a time: lanes are b in whatever
 * vector width the compiler picks, each entry in ascending k. */
static void gram_scalar(const double *h, long n, double *g, long k0, long k1,
                        long a0, long a1) {
  for (long a = a0; a < a1; a++) {
    double *ga = g + a * n;
    for (long k = k0; k < k1; k++) {
      const double *hk = h + k * n;
      double x = hk[a];
      for (long b = a; b < n; b++) ga[b] = ga[b] + x * hk[b];
    }
  }
}

#if defined(__x86_64__)

/* Columns [b, n) of Gram row a, one vector then single entries. */
__attribute__((target("avx2")))
static void gram_row_avx2(const double *h, long n, double *g, long k0,
                          long k1, long a, long b) {
  double *ga = g + a * n;
  for (; b + 4 <= n; b += 4) {
    __m256d s = _mm256_loadu_pd(ga + b);
    for (long k = k0; k < k1; k++) {
      const double *hk = h + k * n;
      s = _mm256_add_pd(
          s, _mm256_mul_pd(_mm256_set1_pd(hk[a]), _mm256_loadu_pd(hk + b)));
    }
    _mm256_storeu_pd(ga + b, s);
  }
  for (; b < n; b++) {
    double s = ga[b];
    for (long k = k0; k < k1; k++) s = s + h[k * n + a] * h[k * n + b];
    ga[b] = s;
  }
}

__attribute__((target("avx2")))
static void gram_avx2(const double *h, long n, double *g, long k0, long k1,
                      long a0, long a1) {
  long a = a0;
  for (; a + 4 <= a1; a += 4) {
    double *g0 = g + a * n, *g1 = g0 + n, *g2 = g1 + n, *g3 = g2 + n;
    long b = a;
    for (; b + 8 <= n; b += 8) {
      __m256d s00 = _mm256_loadu_pd(g0 + b), s01 = _mm256_loadu_pd(g0 + b + 4);
      __m256d s10 = _mm256_loadu_pd(g1 + b), s11 = _mm256_loadu_pd(g1 + b + 4);
      __m256d s20 = _mm256_loadu_pd(g2 + b), s21 = _mm256_loadu_pd(g2 + b + 4);
      __m256d s30 = _mm256_loadu_pd(g3 + b), s31 = _mm256_loadu_pd(g3 + b + 4);
      for (long k = k0; k < k1; k++) {
        const double *hk = h + k * n;
        __m256d y0 = _mm256_loadu_pd(hk + b), y1 = _mm256_loadu_pd(hk + b + 4);
        __m256d x0 = _mm256_set1_pd(hk[a]), x1 = _mm256_set1_pd(hk[a + 1]);
        __m256d x2 = _mm256_set1_pd(hk[a + 2]), x3 = _mm256_set1_pd(hk[a + 3]);
        s00 = _mm256_add_pd(s00, _mm256_mul_pd(x0, y0));
        s01 = _mm256_add_pd(s01, _mm256_mul_pd(x0, y1));
        s10 = _mm256_add_pd(s10, _mm256_mul_pd(x1, y0));
        s11 = _mm256_add_pd(s11, _mm256_mul_pd(x1, y1));
        s20 = _mm256_add_pd(s20, _mm256_mul_pd(x2, y0));
        s21 = _mm256_add_pd(s21, _mm256_mul_pd(x2, y1));
        s30 = _mm256_add_pd(s30, _mm256_mul_pd(x3, y0));
        s31 = _mm256_add_pd(s31, _mm256_mul_pd(x3, y1));
      }
      _mm256_storeu_pd(g0 + b, s00);
      _mm256_storeu_pd(g0 + b + 4, s01);
      _mm256_storeu_pd(g1 + b, s10);
      _mm256_storeu_pd(g1 + b + 4, s11);
      _mm256_storeu_pd(g2 + b, s20);
      _mm256_storeu_pd(g2 + b + 4, s21);
      _mm256_storeu_pd(g3 + b, s30);
      _mm256_storeu_pd(g3 + b + 4, s31);
    }
    for (long r = 0; r < 4; r++) gram_row_avx2(h, n, g, k0, k1, a + r, b);
  }
  for (; a < a1; a++) gram_row_avx2(h, n, g, k0, k1, a, a);
}

/* 1 when the CPU has AVX2; resolved once. */
static int avx2_cached = -1;

static int have_avx2(void) {
  if (avx2_cached < 0) avx2_cached = __builtin_cpu_supports("avx2") ? 1 : 0;
  return avx2_cached;
}

#endif /* __x86_64__ */

/* mode 0 forces the portable path (for cross-path identity tests);
 * mode 1 picks the best available instruction set. */
CAMLprim value archpred_linalg_gram_block(value vh, intnat n, value vg,
                                          intnat k0, intnat k1, intnat a0,
                                          intnat a1, intnat mode) {
  const double *h = (const double *)vh;
  double *g = (double *)vg;
#if defined(__x86_64__)
  if (mode != 0 && have_avx2()) {
    gram_avx2(h, n, g, k0, k1, a0, a1);
    return Val_unit;
  }
#else
  (void)mode;
#endif
  gram_scalar(h, n, g, k0, k1, a0, a1);
  return Val_unit;
}

CAMLprim value archpred_linalg_gram_block_byte(value *argv, int argn) {
  (void)argn;
  return archpred_linalg_gram_block(
      argv[0], Long_val(argv[1]), argv[2], Long_val(argv[3]),
      Long_val(argv[4]), Long_val(argv[5]), Long_val(argv[6]),
      Long_val(argv[7]));
}
