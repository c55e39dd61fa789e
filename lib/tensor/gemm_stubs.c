/* Fused gather-GEMM kernel: rows [i0, i1) x column blocks [b0, b1) of
 * out (m x n) += A (m x k) . B, where B is never materialized.  Output
 * element (i, j) lives at out[off + i*n + j], so a caller can write
 * one sample's block straight into a larger tensor.  B is
 * read straight from a source of h x w planes through (off, y, x) int
 * descriptors, one triple per row p of B ([rows]) and per column j
 * ([cols]):
 *
 *   B(p, j) = src[off_p + off_j + y*w + x],  y = y_p + y_j,  x = x_p + x_j
 *
 * when 0 <= y < h and 0 <= x < w, else 0.  A dense row-major (k x n) B
 * is the special case off_p = p*n, x_j = j, h = 1, w = n.
 *
 * A column block is 8 columns (two quads); block n/8 holds the last
 * n mod 8.  For one block and one slab of at most KB rows of p the
 * kernel gathers B into a KB x 8 stack buffer that stays in L1, then
 * runs a 4-row x 8-column register tile over every row tile of the
 * band, the remainder rows by the same tile at fewer rows.  The gather
 * takes the whole block at once when its 8 columns are consecutive
 * pixels of one image row, else quad by quad: a run of one image row
 * is one block copy (zeros and a shorter copy where it leaves the
 * image), a scattered quad loads without bounds tests on rows where
 * its bounding box is inside the image, and anything else tests each
 * element.  The last, partial block is gathered with zero columns up
 * to 8 and multiplied into a copy of its outputs, whose valid columns
 * are written back.
 *
 * Bit-exactness contract: every output element is ONE chain that starts
 * from out's current value and adds a[i][p] * B(p, j) for p ascending,
 * a separately rounded multiply followed by a separately rounded add.
 * Slabs run in ascending p and each continues its outputs' chains from
 * the values the previous slab stored, the vector lanes are independent
 * chains, and the gathered zeros (padding) are multiplied and added like
 * any other term, so the tile, the remainder rows, the partial block and
 * any row or column banding across domains all give the bits of the
 * scalar reference loop.  That holds only while the compiler neither
 * fuses the multiply into the add (an FMA rounds once) nor reassociates:
 * the dune rule builds this file with -ffp-contract=off, never
 * -ffast-math, and no variant below lists "fma" as a target.
 *
 * The kernel (gemm_kernel.h) is written once with GCC's portable
 * vector extension (four doubles) and included below once per target
 * on x86-64 — avx2 and the baseline (SSE2: each vector splits into two
 * 128-bit halves) — of which the widest the CPU supports is chosen
 * once, at module init.  There is no avx512f variant: without AVX512VL
 * its 256-bit vectors compile to the same VEX instructions as avx2, and
 * a tile of 512-bit vectors (one per row) ran slower.  Elsewhere (NEON
 * on arm64, ...) only the baseline is built.
 *
 * The arrays are OCaml float and int arrays, read raw: the OCaml side
 * checks that float arrays are flat (unboxed doubles) at module init,
 * and checks every length and the descriptors' extent before calling
 * (Tensor.gemm_gather).  Nothing here bounds-checks. */

#include <string.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

/* rows of p per slab: a KB x 8 block of doubles is 16 KB */
#define KB 256

typedef double v4d __attribute__((vector_size(32)));

#define INLINE static inline __attribute__((always_inline))

struct gemm_args {
  intnat k, n, h, w;
  const double *a, *src;
  const value *rows, *cols;
  double *out; /* already advanced by the output offset */
  intnat i0, i1, b0, b1;
};

/* How a group of columns is gathered (gemm_kernel.h), fixed per group
 * and block. */
enum { EDGE, INTERIOR, RUN };

/* ---- ISA variants ------------------------------------------------ */

typedef void variant_fn(const struct gemm_args *);

#define KERNEL(name) name##_baseline
#include "gemm_kernel.h"
#undef KERNEL

#if defined(__x86_64__) && defined(__GNUC__)
#pragma GCC push_options
#pragma GCC target("avx2")
#define KERNEL(name) name##_avx2
#include "gemm_kernel.h"
#undef KERNEL
#pragma GCC pop_options

static int has_avx2(void) { return __builtin_cpu_supports("avx2"); }
#endif

static int always(void) { return 1; }

/* widest first: init picks the first the CPU supports */
static const struct {
  const char *name;
  variant_fn *fn;
  int (*supported)(void);
} variants[] = {
#if defined(__x86_64__) && defined(__GNUC__)
  { "avx2", gemm_avx2, has_avx2 },
#endif
  { "baseline", gemm_baseline, always },
};

#define N_VARIANTS (sizeof variants / sizeof variants[0])

/* index into variants: the widest supported one after module init
 * (Tensor calls dco3d_gemm_isa_use), switched only between kernel
 * calls by the test-only selector */
static int active = N_VARIANTS - 1;

/* Name of variant i, or "" past the last one. */
value dco3d_gemm_isa_name(value vi)
{
  intnat i = Long_val(vi);
  return caml_copy_string(i >= 0 && i < (intnat)N_VARIANTS ? variants[i].name
                                                           : "");
}

/* Make variant i the active one if the CPU supports it; returns the
 * previously active index, or -1 (nothing changed) if it does not. */
value dco3d_gemm_isa_use(value vi)
{
  intnat i = Long_val(vi);
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
#endif
  if (i < 0 || i >= (intnat)N_VARIANTS || !variants[i].supported())
    return Val_long(-1);
  return Val_long(__atomic_exchange_n(&active, (int)i, __ATOMIC_RELAXED));
}

value dco3d_gemm_isa_active(value unit)
{
  (void)unit;
  return Val_long(__atomic_load_n(&active, __ATOMIC_RELAXED));
}

value dco3d_gemm_gather(intnat k, intnat n, intnat h, intnat w, value va,
                        value vsrc, value vrows, value vcols, value vout,
                        intnat off, intnat i0, intnat i1, intnat b0,
                        intnat b1)
{
  struct gemm_args g = {
    k, n, h, w,
    (const double *)va, (const double *)vsrc,
    (const value *)vrows, (const value *)vcols,
    (double *)vout + off,
    i0, i1, b0, b1,
  };
  variants[__atomic_load_n(&active, __ATOMIC_RELAXED)].fn(&g);
  return Val_unit;
}

value dco3d_gemm_gather_byte(value *argv, int argn)
{
  (void)argn;
  return dco3d_gemm_gather(Long_val(argv[0]), Long_val(argv[1]),
                           Long_val(argv[2]), Long_val(argv[3]), argv[4],
                           argv[5], argv[6], argv[7], argv[8],
                           Long_val(argv[9]), Long_val(argv[10]),
                           Long_val(argv[11]), Long_val(argv[12]),
                           Long_val(argv[13]));
}
