/* The frame decoder's line search: libc's memchr, which reads a word or a
   vector register at a time. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <string.h>

/* Index of the first '\n' in b.[i..n), or -1 when there is none or the
   indices fall outside b. */
CAMLprim intnat archpred_frame_newline(value b, intnat i, intnat n) {
  const char *s = (const char *)Bytes_val(b), *r;
  if (i < 0 || n <= i || (uintnat)n > caml_string_length(b)) return -1;
  r = memchr(s + i, '\n', (size_t)(n - i));
  return r == NULL ? -1 : (intnat)(r - s);
}

CAMLprim value archpred_frame_newline_byte(value b, value i, value n) {
  return Val_long(archpred_frame_newline(b, Long_val(i), Long_val(n)));
}
