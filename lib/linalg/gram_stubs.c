/* The Gram matrix H'H of a design given in row blocks, packed as its
 * upper triangle, and the forward substitution of a Cholesky push (see
 * incremental_ls.ml).
 *
 * Gram row a holds the entries b >= a: entry (a, b) is g[row_base(a) + b],
 * row_base(a) = a*n - a(a-1)/2 - a.  One call adds the kn rows of a
 * block h (row-major, stride n) into Gram rows [a0, a1):
 *
 *   g[a][b] = g[a][b] + h[k][a] * h[k][b]        (k ascending)
 *
 * The caller zeroes g and passes the design's row blocks in ascending
 * order, so every entry is its ascending-row sum from +0 whatever the
 * blocking: an accumulator stored to g and loaded back between blocks is
 * the same double.  The AVX2 path puts consecutive b in the lanes of a
 * vector and register-blocks four a rows by two vectors, so each loaded
 * run of a design row serves four Gram rows.  The four rows' leading
 * 4x4 triangle is summed on its own first: a dense kernel may fill the
 * three entries below the diagonal and mirror over them, but in packed
 * rows those slots are the previous row's tail.
 *
 * The dune stanza compiles this file with -ffp-contract=off: a fused
 * multiply-add would change results in the last ulp. */

#include <caml/mlvalues.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

static inline long row_base(long a, long n) {
  return a * n - a * (a - 1) / 2 - a;
}

/* Rank-1 updates of one Gram row at a time: lanes are b in whatever
 * vector width the compiler picks, each entry in ascending k. */
static void gram_scalar(const double *h, long n, double *g, long kn,
                        long a0, long a1) {
  for (long a = a0; a < a1; a++) {
    double *ga = g + row_base(a, n);
    for (long k = 0; k < kn; k++) {
      const double *hk = h + k * n;
      double x = hk[a];
      for (long b = a; b < n; b++) ga[b] = ga[b] + x * hk[b];
    }
  }
}

#if defined(__x86_64__)

/* Columns [b, n) of the Gram row ga (row a), one vector then single
 * entries. */
__attribute__((target("avx2")))
static void gram_row_avx2(const double *h, long n, double *ga, long kn,
                          long a, long b) {
  for (; b + 4 <= n; b += 4) {
    __m256d s = _mm256_loadu_pd(ga + b);
    for (long k = 0; k < kn; k++) {
      const double *hk = h + k * n;
      s = _mm256_add_pd(
          s, _mm256_mul_pd(_mm256_set1_pd(hk[a]), _mm256_loadu_pd(hk + b)));
    }
    _mm256_storeu_pd(ga + b, s);
  }
  for (; b < n; b++) {
    double s = ga[b];
    for (long k = 0; k < kn; k++) s = s + h[k * n + a] * h[k * n + b];
    ga[b] = s;
  }
}

__attribute__((target("avx2")))
static void gram_avx2(const double *h, long n, double *g, long kn, long a0,
                      long a1) {
  long a = a0;
  for (; a + 4 <= a1; a += 4) {
    double *gr[4];
    for (long r = 0; r < 4; r++) gr[r] = g + row_base(a + r, n);
    /* The leading triangle, entries (a + r, a + c) with c >= r. */
    for (long r = 0; r < 4; r++)
      for (long c = r; c < 4; c++) {
        double s = gr[r][a + c];
        for (long k = 0; k < kn; k++)
          s = s + h[k * n + a + r] * h[k * n + a + c];
        gr[r][a + c] = s;
      }
    double *g0 = gr[0], *g1 = gr[1], *g2 = gr[2], *g3 = gr[3];
    long b = a + 4;
    for (; b + 8 <= n; b += 8) {
      __m256d s00 = _mm256_loadu_pd(g0 + b), s01 = _mm256_loadu_pd(g0 + b + 4);
      __m256d s10 = _mm256_loadu_pd(g1 + b), s11 = _mm256_loadu_pd(g1 + b + 4);
      __m256d s20 = _mm256_loadu_pd(g2 + b), s21 = _mm256_loadu_pd(g2 + b + 4);
      __m256d s30 = _mm256_loadu_pd(g3 + b), s31 = _mm256_loadu_pd(g3 + b + 4);
      for (long k = 0; k < kn; k++) {
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
    for (long r = 0; r < 4; r++) gram_row_avx2(h, n, gr[r], kn, a + r, b);
  }
  for (; a < a1; a++) gram_row_avx2(h, n, g + row_base(a, n), kn, a, a);
  _mm256_zeroupper();
}

#endif /* __x86_64__ */

int archpred_simd_level(void); /* lib/simd */

CAMLprim value archpred_linalg_gram_packed(value vh, intnat n, value vg,
                                           intnat kn, intnat a0, intnat a1) {
  const double *h = (const double *)vh;
  double *g = (double *)vg;
#if defined(__x86_64__)
  if (archpred_simd_level() >= 1) {
    gram_avx2(h, n, g, kn, a0, a1);
    return Val_unit;
  }
#endif
  gram_scalar(h, n, g, kn, a0, a1);
  return Val_unit;
}

CAMLprim value archpred_linalg_gram_packed_byte(value *argv, int argn) {
  (void)argn;
  return archpred_linalg_gram_packed(argv[0], Long_val(argv[1]), argv[2],
                                     Long_val(argv[3]), Long_val(argv[4]),
                                     Long_val(argv[5]));
}

/* The forward substitution L a = acc of a Cholesky push, in place, by
 * columns of l (L_kq at l[q*n + k]): a_q = acc[q] / L_qq, then
 * acc[k] = acc[k] - a_q * L_kq for k > q.  Every acc[k] takes its terms
 * in ascending q, as the dot product L_kk a_k = acc_k - sum_{q<k} a_q
 * L_kq does, so the two agree bit for bit; AVX2 lanes run down a
 * column.  gcc -O2 leaves the portable loop scalar, and the AVX2 twin
 * takes selection's walk from ~0.23 to ~0.13 s (DESIGN.md §5c). */
static void sweep_portable(const double *l, double *acc, long n, long m) {
  for (long q = 0; q < m; q++) {
    const double *lq = l + q * n;
    double a = acc[q] / lq[q];
    acc[q] = a;
    for (long k = q + 1; k < m; k++) acc[k] = acc[k] - a * lq[k];
  }
}

#if defined(__x86_64__)
__attribute__((target("avx2")))
static void sweep_avx2(const double *l, double *acc, long n, long m) {
  for (long q = 0; q < m; q++) {
    const double *lq = l + q * n;
    double a = acc[q] / lq[q];
    __m256d va = _mm256_set1_pd(a);
    long k = q + 1;
    acc[q] = a;
    for (; k + 4 <= m; k += 4)
      _mm256_storeu_pd(acc + k,
                       _mm256_sub_pd(_mm256_loadu_pd(acc + k),
                                     _mm256_mul_pd(va, _mm256_loadu_pd(lq + k))));
    for (; k < m; k++) acc[k] = acc[k] - a * lq[k];
  }
  _mm256_zeroupper();
}
#endif

/* With four tagged arguments one entry serves bytecode and native code. */
CAMLprim value archpred_linalg_push_sweep(value vl, value vacc, value vn,
                                          value vm) {
  long n = Long_val(vn), m = Long_val(vm);
#if defined(__x86_64__)
  if (archpred_simd_level() >= 1)
    sweep_avx2((const double *)vl, (double *)vacc, n, m);
  else
#endif
    sweep_portable((const double *)vl, (double *)vacc, n, m);
  return Val_unit;
}
