/* Pair sums of the L2 discrepancies (see discrepancy.ml).
 *
 * One call sums row [i] of the strict upper triangle of a pairwise
 * kernel: sum over j in (i, n) of prod_k term_k(x_i, x_j).  The points
 * arrive dim-major, coordinate k of point j at xt[k*n + j], so the
 * coordinates of consecutive j are contiguous.
 *
 * Bit-identity contract: every path performs, for every pair, exactly
 * the operations of the OCaml loops this file replaced --
 *
 *   star:     prod = prod * (1 - Float.max(x_ik, x_jk))          (k asc)
 *   centered: prod = prod * (((1 + hz_ik) + hz_jk) - 0.5*|x_ik - x_jk|)
 *   row:      acc  = acc + prod_j                                 (j asc)
 *
 * where hz = 0.5 * |x - 1/2|, precomputed by the caller (the same
 * product the OCaml loop formed per pair).  The AVX2 path puts four
 * consecutive j in the lanes of a vector, two vectors at a time, and
 * runs the k product per lane; the row sum then adds the lane products
 * one at a time in ascending j, so no reduction is reassociated.
 *
 * Float.max: maxpd(a, b) returns b when the operands compare equal or
 * either is NaN.  On equal operands that is harmless -- the only equal
 * pair it can return the "wrong" one of is {-0, +0}, and 1 - (+-0) is
 * exactly 1.  On NaN, Float.max returns the NaN operand; maxpd with the
 * broadcast x_ik first returns x_jk, which is that NaN whenever x_jk is
 * NaN.  A NaN x_ik would be dropped, so a row with a NaN coordinate
 * takes the portable path instead.
 *
 * The dune stanza compiles this file with -ffp-contract=off: a fused
 * multiply-add would change results in the last ulp. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <math.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

/* Stdlib.Float.max, branch for branch, so NaN payloads match too. */
static inline double ocaml_float_max(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return isnan(x) ? x : y;
  return isnan(y) ? y : x;
}

static inline double star_pair(const double *xt, long n, long d, long i,
                               long j) {
  double prod = 1.0;
  for (long k = 0; k < d; k++)
    prod = prod * (1.0 - ocaml_float_max(xt[k * n + i], xt[k * n + j]));
  return prod;
}

/* xt holds x in its first d*n entries and hz in the next d*n. */
static inline double centered_pair(const double *xt, long n, long d, long i,
                                   long j) {
  const double *hz = xt + d * n;
  double prod = 1.0;
  for (long k = 0; k < d; k++) {
    double dij = fabs(xt[k * n + i] - xt[k * n + j]);
    prod = prod * (((1.0 + hz[k * n + i]) + hz[k * n + j]) - 0.5 * dij);
  }
  return prod;
}

static double star_row_scalar(const double *xt, long n, long d, long i) {
  double acc = 0.0;
  for (long j = i + 1; j < n; j++) acc = acc + star_pair(xt, n, d, i, j);
  return acc;
}

static double centered_row_scalar(const double *xt, long n, long d, long i) {
  double acc = 0.0;
  for (long j = i + 1; j < n; j++) acc = acc + centered_pair(xt, n, d, i, j);
  return acc;
}

#if defined(__x86_64__)

/* Eight pairs per iteration; [lane] receives their products in j order. */
__attribute__((target("avx2")))
static double star_row_avx2(const double *xt, long n, long d, long i) {
  for (long k = 0; k < d; k++)
    if (isnan(xt[k * n + i])) return star_row_scalar(xt, n, d, i);
  const __m256d one = _mm256_set1_pd(1.0);
  double lane[8] __attribute__((aligned(32)));
  double acc = 0.0;
  long j = i + 1;
  for (; j + 8 <= n; j += 8) {
    __m256d p0 = one, p1 = one;
    for (long k = 0; k < d; k++) {
      const double *row = xt + k * n;
      __m256d xi = _mm256_set1_pd(row[i]);
      __m256d m0 = _mm256_max_pd(xi, _mm256_loadu_pd(row + j));
      __m256d m1 = _mm256_max_pd(xi, _mm256_loadu_pd(row + j + 4));
      p0 = _mm256_mul_pd(p0, _mm256_sub_pd(one, m0));
      p1 = _mm256_mul_pd(p1, _mm256_sub_pd(one, m1));
    }
    _mm256_store_pd(lane, p0);
    _mm256_store_pd(lane + 4, p1);
    for (int l = 0; l < 8; l++) acc = acc + lane[l];
  }
  for (; j < n; j++) acc = acc + star_pair(xt, n, d, i, j);
  return acc;
}

__attribute__((target("avx2")))
static double centered_row_avx2(const double *xt, long n, long d, long i) {
  const double *hz = xt + d * n;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  double lane[8] __attribute__((aligned(32)));
  double acc = 0.0;
  long j = i + 1;
  for (; j + 8 <= n; j += 8) {
    __m256d p0 = one, p1 = one;
    for (long k = 0; k < d; k++) {
      const double *xrow = xt + k * n, *hrow = hz + k * n;
      __m256d xi = _mm256_set1_pd(xrow[i]);
      __m256d ci = _mm256_set1_pd(1.0 + hrow[i]);
      __m256d d0 = _mm256_and_pd(
          _mm256_sub_pd(xi, _mm256_loadu_pd(xrow + j)), abs_mask);
      __m256d d1 = _mm256_and_pd(
          _mm256_sub_pd(xi, _mm256_loadu_pd(xrow + j + 4)), abs_mask);
      __m256d t0 = _mm256_sub_pd(_mm256_add_pd(ci, _mm256_loadu_pd(hrow + j)),
                                 _mm256_mul_pd(half, d0));
      __m256d t1 =
          _mm256_sub_pd(_mm256_add_pd(ci, _mm256_loadu_pd(hrow + j + 4)),
                        _mm256_mul_pd(half, d1));
      p0 = _mm256_mul_pd(p0, t0);
      p1 = _mm256_mul_pd(p1, t1);
    }
    _mm256_store_pd(lane, p0);
    _mm256_store_pd(lane + 4, p1);
    for (int l = 0; l < 8; l++) acc = acc + lane[l];
  }
  for (; j < n; j++) acc = acc + centered_pair(xt, n, d, i, j);
  return acc;
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
CAMLprim double archpred_discrepancy_star_row(value vxt, intnat n, intnat d,
                                              intnat i, intnat mode) {
  const double *xt = (const double *)vxt;
#if defined(__x86_64__)
  if (mode != 0 && have_avx2()) return star_row_avx2(xt, n, d, i);
#else
  (void)mode;
#endif
  return star_row_scalar(xt, n, d, i);
}

CAMLprim double archpred_discrepancy_centered_row(value vxt, intnat n,
                                                  intnat d, intnat i,
                                                  intnat mode) {
  const double *xt = (const double *)vxt;
#if defined(__x86_64__)
  if (mode != 0 && have_avx2()) return centered_row_avx2(xt, n, d, i);
#else
  (void)mode;
#endif
  return centered_row_scalar(xt, n, d, i);
}

CAMLprim value archpred_discrepancy_star_row_byte(value vxt, value vn,
                                                  value vd, value vi,
                                                  value vmode) {
  return caml_copy_double(archpred_discrepancy_star_row(
      vxt, Long_val(vn), Long_val(vd), Long_val(vi), Long_val(vmode)));
}

CAMLprim value archpred_discrepancy_centered_row_byte(value vxt, value vn,
                                                      value vd, value vi,
                                                      value vmode) {
  return caml_copy_double(archpred_discrepancy_centered_row(
      vxt, Long_val(vn), Long_val(vd), Long_val(vi), Long_val(vmode)));
}
