/* Vectorised batch evaluation of an RBF network over struct-of-arrays
 * storage (see batch_kernel.mli).
 *
 * Bit-identity contract: every path below -- portable C scalar, AVX2
 * (8 points as 2x4 lanes) and AVX-512 (8 lanes) -- performs exactly the
 * same sequence of IEEE-754 double operations per point as the OCaml
 * reference in rbf_math.ml / network.ml:
 *
 *   d   = (x[k] - c[j][k]) * ir[j][k]         (k ascending)
 *   s   = ((d0*d0 + d1*d1) + d2*d2) + ...     (left-associated)
 *   h   = exp_neg(s)                          (table + degree-4 poly)
 *   acc = ((w0*h0 + w1*h1) + w2*h2) + ...     (left-associated)
 *
 * Vectorisation is across *points* (lanes = points), never across the
 * k/j reductions, so the per-point operation order is untouched.  The
 * exp tables are the bigarrays built in rbf_math.ml, passed in on every
 * call -- the C side holds no tables of its own, so the two languages
 * cannot drift.  The hex constants below must match rbf_math.ml.
 *
 * The dune stanza compiles this file with -ffp-contract=off: a fused
 * multiply-add would change results in the last ulp and break the
 * contract (OCaml's code generator never emits FMA for a *. b +. c).
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <math.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#define INVLN2_64 0x1.71547652b82fep+6
#define LN2_64_HI 0x1.62e42fee00000p-7
#define LN2_64_LO 0x1.a39ef35793c76p-39
#define POLY_C3 0.16666666666666666
#define POLY_C4 0.041666666666666664
#define POW2_OFFSET 1099
#define POW2_LAST 2122

static double exp_neg_scalar(double s, const double *t2j, const double *p2) {
  if (!(fabs(s) <= 708.0)) {
    if (s != s) return s;
    return s > 0.0 ? 0.0 : INFINITY;
  }
  double z = (-s) * INVLN2_64;
  long n = (long)(z - 0.5);
  double nf = (double)n;
  double r = ((-s) - nf * LN2_64_HI) - nf * LN2_64_LO;
  long j = n & 63, e = n >> 6;
  double p = 1.0 + r * (1.0 + r * (0.5 + r * (POLY_C3 + r * POLY_C4)));
  return t2j[j] * p * p2[e + POW2_OFFSET];
}

static void eval_scalar(const double *c, const double *ir, const double *w,
                        long m, long dim, const double *q, long i0, long n,
                        double *out, const double *t2j, const double *p2) {
  for (long i = i0; i < n; i++) {
    const double *x = q + i * dim;
    double acc = 0.0;
    for (long j = 0; j < m; j++) {
      const double *cj = c + j * dim, *irj = ir + j * dim;
      double s = 0.0;
      for (long k = 0; k < dim; k++) {
        double d = (x[k] - cj[k]) * irj[k];
        s = s + d * d;
      }
      acc = acc + w[j] * exp_neg_scalar(s, t2j, p2);
    }
    out[i] = acc;
  }
}

#if defined(__x86_64__)

/* Lanes that fail the |s| <= 708 guard still run the table path with a
 * clamped index (their result is discarded by the final blend), so the
 * gathers stay in bounds.  _mm256_cvttpd_epi32 truncates toward zero,
 * matching the C (long) cast and OCaml's int_of_float. */
__attribute__((target("avx2")))
static inline __m256d exp_neg_avx2(__m256d s, const double *t2j,
                                   const double *p2) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d abs_s = _mm256_and_pd(s, abs_mask);
  __m256d ok = _mm256_cmp_pd(abs_s, _mm256_set1_pd(708.0), _CMP_LE_OQ);
  __m256d ns = _mm256_sub_pd(_mm256_setzero_pd(), s);
  __m256d z = _mm256_mul_pd(ns, _mm256_set1_pd(INVLN2_64));
  __m128i ni = _mm256_cvttpd_epi32(_mm256_sub_pd(z, _mm256_set1_pd(0.5)));
  __m256d nf = _mm256_cvtepi32_pd(ni);
  __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(ns, _mm256_mul_pd(nf, _mm256_set1_pd(LN2_64_HI))),
      _mm256_mul_pd(nf, _mm256_set1_pd(LN2_64_LO)));
  __m128i j = _mm_and_si128(ni, _mm_set1_epi32(63));
  __m128i e = _mm_srai_epi32(ni, 6);
  __m128i idx = _mm_add_epi32(e, _mm_set1_epi32(POW2_OFFSET));
  idx = _mm_max_epi32(idx, _mm_setzero_si128());
  idx = _mm_min_epi32(idx, _mm_set1_epi32(POW2_LAST));
  __m256d p = _mm256_add_pd(_mm256_set1_pd(POLY_C3),
                            _mm256_mul_pd(r, _mm256_set1_pd(POLY_C4)));
  p = _mm256_add_pd(_mm256_set1_pd(0.5), _mm256_mul_pd(r, p));
  p = _mm256_add_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(r, p));
  p = _mm256_add_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(r, p));
  __m256d tj = _mm256_i32gather_pd(t2j, j, 8);
  __m256d pe = _mm256_i32gather_pd(p2, idx, 8);
  __m256d res = _mm256_mul_pd(_mm256_mul_pd(tj, p), pe);
  /* slow lanes: NaN passes through; s > 708 -> 0; s < -708 -> inf */
  __m256d pos = _mm256_cmp_pd(s, _mm256_setzero_pd(), _CMP_GT_OQ);
  __m256d alt =
      _mm256_blendv_pd(_mm256_set1_pd(INFINITY), _mm256_setzero_pd(), pos);
  __m256d isnan = _mm256_cmp_pd(s, s, _CMP_UNORD_Q);
  alt = _mm256_blendv_pd(alt, s, isnan);
  return _mm256_blendv_pd(alt, res, ok);
}

/* 8 points per iteration as two interleaved 4-lane accumulators: the
 * broadcast center/radius/weight loads are shared across both halves,
 * which on this kernel beats plain 4-wide by ~15%. */
__attribute__((target("avx2")))
static void eval_avx2(const double *c, const double *ir, const double *w,
                      long m, long dim, const double *q, long n, double *out,
                      const double *t2j, const double *p2) {
  long i = 0;
  double xT[64][8] __attribute__((aligned(32)));
  if (dim <= 64)
    for (; i + 8 <= n; i += 8) {
      for (long k = 0; k < dim; k++)
        for (long l = 0; l < 8; l++) xT[k][l] = q[(i + l) * dim + k];
      __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
      for (long j = 0; j < m; j++) {
        const double *cj = c + j * dim, *irj = ir + j * dim;
        __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
        for (long k = 0; k < dim; k++) {
          __m256d ck = _mm256_set1_pd(cj[k]);
          __m256d irk = _mm256_set1_pd(irj[k]);
          __m256d d0 =
              _mm256_mul_pd(_mm256_sub_pd(_mm256_load_pd(xT[k]), ck), irk);
          __m256d d1 =
              _mm256_mul_pd(_mm256_sub_pd(_mm256_load_pd(xT[k] + 4), ck), irk);
          s0 = _mm256_add_pd(s0, _mm256_mul_pd(d0, d0));
          s1 = _mm256_add_pd(s1, _mm256_mul_pd(d1, d1));
        }
        __m256d e0 = exp_neg_avx2(s0, t2j, p2);
        __m256d e1 = exp_neg_avx2(s1, t2j, p2);
        __m256d wj = _mm256_set1_pd(w[j]);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(wj, e0));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(wj, e1));
      }
      _mm256_storeu_pd(out + i, acc0);
      _mm256_storeu_pd(out + i + 4, acc1);
    }
  /* gcc emits no vzeroupper in these kernels: upper register halves
     left dirty make every later legacy-SSE instruction of the process
     slow (the scalar tail, OCaml float code, the JSON number stubs;
     DESIGN 5h has the measurement), so clear them here. */
  _mm256_zeroupper();
  eval_scalar(c, ir, w, m, dim, q, i, n, out, t2j, p2);
}

__attribute__((target("avx512f")))
static inline __m512d exp_neg_avx512(__m512d s, const double *t2j,
                                     const double *p2) {
  __m512d abs_s = _mm512_abs_pd(s);
  __mmask8 ok = _mm512_cmp_pd_mask(abs_s, _mm512_set1_pd(708.0), _CMP_LE_OQ);
  __m512d ns = _mm512_sub_pd(_mm512_setzero_pd(), s);
  __m512d z = _mm512_mul_pd(ns, _mm512_set1_pd(INVLN2_64));
  __m256i ni = _mm512_cvttpd_epi32(_mm512_sub_pd(z, _mm512_set1_pd(0.5)));
  __m512d nf = _mm512_cvtepi32_pd(ni);
  __m512d r = _mm512_sub_pd(
      _mm512_sub_pd(ns, _mm512_mul_pd(nf, _mm512_set1_pd(LN2_64_HI))),
      _mm512_mul_pd(nf, _mm512_set1_pd(LN2_64_LO)));
  __m256i j = _mm256_and_si256(ni, _mm256_set1_epi32(63));
  __m256i e = _mm256_srai_epi32(ni, 6);
  __m256i idx = _mm256_add_epi32(e, _mm256_set1_epi32(POW2_OFFSET));
  idx = _mm256_max_epi32(idx, _mm256_setzero_si256());
  idx = _mm256_min_epi32(idx, _mm256_set1_epi32(POW2_LAST));
  __m512d p = _mm512_add_pd(_mm512_set1_pd(POLY_C3),
                            _mm512_mul_pd(r, _mm512_set1_pd(POLY_C4)));
  p = _mm512_add_pd(_mm512_set1_pd(0.5), _mm512_mul_pd(r, p));
  p = _mm512_add_pd(_mm512_set1_pd(1.0), _mm512_mul_pd(r, p));
  p = _mm512_add_pd(_mm512_set1_pd(1.0), _mm512_mul_pd(r, p));
  __m512d tj = _mm512_i32gather_pd(j, t2j, 8);
  __m512d pe = _mm512_i32gather_pd(idx, p2, 8);
  __m512d res = _mm512_mul_pd(_mm512_mul_pd(tj, p), pe);
  __mmask8 pos = _mm512_cmp_pd_mask(s, _mm512_setzero_pd(), _CMP_GT_OQ);
  __m512d alt =
      _mm512_mask_blend_pd(pos, _mm512_set1_pd(INFINITY), _mm512_setzero_pd());
  __mmask8 isnan = _mm512_cmp_pd_mask(s, s, _CMP_UNORD_Q);
  alt = _mm512_mask_blend_pd(isnan, alt, s);
  return _mm512_mask_blend_pd(ok, alt, res);
}

__attribute__((target("avx512f")))
static void eval_avx512(const double *c, const double *ir, const double *w,
                        long m, long dim, const double *q, long n, double *out,
                        const double *t2j, const double *p2) {
  long i = 0;
  double xT[64][8] __attribute__((aligned(64)));
  if (dim <= 64)
    for (; i + 8 <= n; i += 8) {
      for (long k = 0; k < dim; k++)
        for (long l = 0; l < 8; l++) xT[k][l] = q[(i + l) * dim + k];
      __m512d acc = _mm512_setzero_pd();
      for (long j = 0; j < m; j++) {
        const double *cj = c + j * dim, *irj = ir + j * dim;
        __m512d s = _mm512_setzero_pd();
        for (long k = 0; k < dim; k++) {
          __m512d xk = _mm512_load_pd(xT[k]);
          __m512d d = _mm512_mul_pd(_mm512_sub_pd(xk, _mm512_set1_pd(cj[k])),
                                    _mm512_set1_pd(irj[k]));
          s = _mm512_add_pd(s, _mm512_mul_pd(d, d));
        }
        __m512d e = exp_neg_avx512(s, t2j, p2);
        acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_set1_pd(w[j]), e));
      }
      _mm512_storeu_pd(out + i, acc);
    }
  _mm256_zeroupper(); /* as in eval_avx2 */
  eval_scalar(c, ir, w, m, dim, q, i, n, out, t2j, p2);
}

#endif /* __x86_64__ */

/* 0 = portable scalar, 1 = AVX2, 2 = AVX-512; resolved once. */
static int simd_level_cached = -1;

static int simd_level(void) {
  if (simd_level_cached < 0) {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f")) simd_level_cached = 2;
    else if (__builtin_cpu_supports("avx2")) simd_level_cached = 1;
    else simd_level_cached = 0;
#else
    simd_level_cached = 0;
#endif
  }
  return simd_level_cached;
}

CAMLprim value archpred_rbf_simd_level(value unit) {
  (void)unit;
  return Val_long(simd_level());
}

/* mode 0 forces the portable scalar path (for cross-path identity
 * tests); mode 1 picks the best available instruction set. */
CAMLprim value archpred_rbf_eval_batch(value vc, value vir, value vw,
                                       value vm, value vdim, value vn,
                                       value vq, value vout,
                                       value vt2j, value vp2, value vmode) {
  const double *c = (double *)Caml_ba_data_val(vc);
  const double *ir = (double *)Caml_ba_data_val(vir);
  const double *w = (double *)Caml_ba_data_val(vw);
  const double *q = (double *)Caml_ba_data_val(vq);
  double *out = (double *)Caml_ba_data_val(vout);
  const double *t2j = (double *)Caml_ba_data_val(vt2j);
  const double *p2 = (double *)Caml_ba_data_val(vp2);
  long m = Long_val(vm);
  long dim = Long_val(vdim);
  long n = Long_val(vn);
#if defined(__x86_64__)
  if (Long_val(vmode) != 0) {
    int level = simd_level();
    if (level == 2) {
      eval_avx512(c, ir, w, m, dim, q, n, out, t2j, p2);
      return Val_unit;
    }
    if (level == 1) {
      eval_avx2(c, ir, w, m, dim, q, n, out, t2j, p2);
      return Val_unit;
    }
  }
#else
  (void)vmode;
#endif
  eval_scalar(c, ir, w, m, dim, q, 0, n, out, t2j, p2);
  return Val_unit;
}

CAMLprim value archpred_rbf_eval_batch_bytecode(value *argv, int argn) {
  (void)argn;
  return archpred_rbf_eval_batch(argv[0], argv[1], argv[2], argv[3], argv[4],
                                 argv[5], argv[6], argv[7], argv[8], argv[9],
                                 argv[10]);
}
