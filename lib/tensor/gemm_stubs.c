/* Packed-GEMM micro-kernel: rows [i0, i1) x column blocks [b0, b1) of
 * C (m x n) += A (m x k) . B, where block q < n/4 is quad q and block
 * n/4 the n mod 4 tail.  B is packed by Tensor.pack_dense /
 * Tensor.pack_gather — full quads first (quad q holds columns 4q..4q+3, element (p, 4q+t) at
 * q*4k + 4p + t), then a tail block of r = n mod 4 columns with element
 * (p, j) at nq*4k + p*r + (j - 4*nq).
 *
 * Bit-exactness contract: every output element is ONE chain that starts
 * from C's current value and adds a[i][p] * b[p][j] for p ascending, a
 * separately rounded multiply followed by a separately rounded add.
 * The vector lanes below are independent chains, one per output
 * element, so the 4x4 register tile, the remainder rows, the tail and
 * any row or column banding across domains all give the bits of the
 * scalar reference loop.  That holds only while the compiler neither fuses the
 * multiply into the add (an FMA rounds once) nor reassociates: the dune
 * rule builds this file with -ffp-contract=off, and never -ffast-math.
 *
 * The vectors are GCC's portable 128-bit extension (two doubles): SSE2
 * on x86-64, NEON on arm64.  The arrays are OCaml float arrays, which
 * the OCaml side checks are flat (unboxed doubles) at module init. */

#include <caml/mlvalues.h>

typedef double v2d __attribute__((vector_size(16)));

static inline v2d load2(const double *p)
{
  v2d v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

static inline void store2(double *p, v2d v)
{
  __builtin_memcpy(p, &v, sizeof v);
}

static inline v2d splat(double x)
{
  return (v2d){ x, x };
}

value dco3d_gemm_band(intnat k, intnat n, value va, value vpb, value vout,
                      intnat i0, intnat i1, intnat b0, intnat b1)
{
  const double *a = (const double *)va;
  const double *pb = (const double *)vpb;
  double *out = (double *)vout;
  intnat nq = n >> 2, r = n & 3, k4 = k << 2;
  intnat qend = b1 < nq ? b1 : nq;

  for (intnat q = b0; q < qend; q++) {
    const double *bq = pb + q * k4;
    intnat jcol = q << 2;
    intnat i = i0;
    /* 4 rows x 4 columns: eight 2-lane accumulators */
    for (; i + 4 <= i1; i += 4) {
      const double *a0 = a + i * k, *a1 = a0 + k, *a2 = a1 + k, *a3 = a2 + k;
      double *c0 = out + i * n + jcol, *c1 = c0 + n, *c2 = c1 + n,
             *c3 = c2 + n;
      v2d s00 = load2(c0), s01 = load2(c0 + 2);
      v2d s10 = load2(c1), s11 = load2(c1 + 2);
      v2d s20 = load2(c2), s21 = load2(c2 + 2);
      v2d s30 = load2(c3), s31 = load2(c3 + 2);
      for (intnat p = 0; p < k; p++) {
        v2d b0 = load2(bq + (p << 2)), b1 = load2(bq + (p << 2) + 2);
        v2d x0 = splat(a0[p]), x1 = splat(a1[p]);
        v2d x2 = splat(a2[p]), x3 = splat(a3[p]);
        s00 = s00 + x0 * b0;
        s01 = s01 + x0 * b1;
        s10 = s10 + x1 * b0;
        s11 = s11 + x1 * b1;
        s20 = s20 + x2 * b0;
        s21 = s21 + x2 * b1;
        s30 = s30 + x3 * b0;
        s31 = s31 + x3 * b1;
      }
      store2(c0, s00);
      store2(c0 + 2, s01);
      store2(c1, s10);
      store2(c1 + 2, s11);
      store2(c2, s20);
      store2(c2 + 2, s21);
      store2(c3, s30);
      store2(c3 + 2, s31);
    }
    /* remainder rows: 1 row x 4 columns */
    for (; i < i1; i++) {
      const double *a0 = a + i * k;
      double *c0 = out + i * n + jcol;
      v2d s0 = load2(c0), s1 = load2(c0 + 2);
      for (intnat p = 0; p < k; p++) {
        v2d x0 = splat(a0[p]);
        s0 = s0 + x0 * load2(bq + (p << 2));
        s1 = s1 + x0 * load2(bq + (p << 2) + 2);
      }
      store2(c0, s0);
      store2(c0 + 2, s1);
    }
  }

  if (r > 0 && b1 > nq) {
    /* the n mod 4 tail: one scalar chain per (row, column) */
    const double *bt = pb + nq * k4;
    intnat jcol = nq << 2;
    for (intnat i = i0; i < i1; i++) {
      const double *a0 = a + i * k;
      double *c0 = out + i * n + jcol;
      double s[3] = { c0[0], r > 1 ? c0[1] : 0., r > 2 ? c0[2] : 0. };
      for (intnat p = 0; p < k; p++) {
        double x = a0[p];
        const double *b = bt + p * r;
        for (intnat t = 0; t < r; t++)
          s[t] = s[t] + x * b[t];
      }
      for (intnat t = 0; t < r; t++)
        c0[t] = s[t];
    }
  }
  return Val_unit;
}

value dco3d_gemm_band_byte(value *argv, int argn)
{
  (void)argn;
  return dco3d_gemm_band(Long_val(argv[0]), Long_val(argv[1]), argv[2],
                         argv[3], argv[4], Long_val(argv[5]),
                         Long_val(argv[6]), Long_val(argv[7]),
                         Long_val(argv[8]));
}
