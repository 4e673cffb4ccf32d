/* The one SIMD dispatch of the tree (see simd.mli): every C kernel runs
 * at archpred_simd_level(), the smaller of what CPUID reports and a
 * process-wide cap.  The cap starts at the top level; only tests lower
 * it, to run the portable and AVX2 paths on an AVX-512 host. */

#include <caml/mlvalues.h>

/* 0 = portable C, 1 = AVX2, 2 = AVX-512; the host's is resolved once. */
static int host = -1;
static int cap = 2;

static int host_level(void) {
  if (host < 0) {
#if defined(__x86_64__)
    host = __builtin_cpu_supports("avx512f") ? 2
           : __builtin_cpu_supports("avx2")  ? 1
                                             : 0;
#else
    host = 0;
#endif
  }
  return host;
}

int archpred_simd_level(void) {
  int h = host_level();
  return h < cap ? h : cap;
}

CAMLprim value archpred_simd_host(value unit) {
  (void)unit;
  return Val_int(host_level());
}

CAMLprim value archpred_simd_current(value unit) {
  (void)unit;
  return Val_int(archpred_simd_level());
}

CAMLprim value archpred_simd_swap_cap(value v) {
  int old = cap;
  cap = Int_val(v);
  return Val_int(old);
}
