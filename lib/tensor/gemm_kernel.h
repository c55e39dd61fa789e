/* The gather-GEMM kernel for one instruction set, included by
 * gemm_stubs.c once per variant under "#pragma GCC target": every
 * function below, the vector constructors included, is then compiled
 * for that target (a vector built in a function compiled for the
 * baseline and inlined into an avx2 one is split into 128-bit halves
 * first, which costs a shuffle per broadcast).  KERNEL(name) gives
 * each inclusion its own names; the entry is KERNEL(gemm).  Types,
 * KB and the bit-exactness contract are in gemm_stubs.c. */

#define load4 KERNEL(load4)
#define store4 KERNEL(store4)
#define splat KERNEL(splat)
#define gather_rows KERNEL(gather_rows)
#define run KERNEL(run)
#define gather_quad KERNEL(gather_quad)
#define gather_block KERNEL(gather_block)
#define tile KERNEL(tile)
#define tile_rows KERNEL(tile_rows)
#define gemm KERNEL(gemm)

INLINE v4d load4(const double *p)
{
  v4d v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

INLINE void store4(double *p, v4d v)
{
  __builtin_memcpy(p, &v, sizeof v);
}

INLINE v4d splat(double x)
{
  return (v4d){ x, x, x, x };
}

/* Rows [p0, p0 + kb) of a group of `width` (4 or 8) columns, the first
 * nv of them valid, into columns 0 .. width-1 of bq (row stride 8),
 * with 0. in the invalid ones and outside the image.  mode and width
 * are constants at every call site.
 *   RUN: the columns are consecutive pixels of one image row (same off
 *   and y, x ascending by 1), so for every p they read one run of the
 *   source row yp + y0 from x = xp + x0: one block copy when the whole
 *   run is inside the image, else zeros and the part that is.
 *   INTERIOR: a row p for which the group's bounding box lies inside
 *   the image (0 <= yp + ylo < limy, 0 <= xp + xlo < limx) takes one
 *   load per column and no bounds tests; other rows go as EDGE.
 *   EDGE: each element is tested, without a branch: one outside the
 *   image loads src[0] (the source is not empty when h, w > 0:
 *   Tensor.gemm_gather checks its extent) and stores 0. instead. */
INLINE void gather_rows(const int mode, const int width,
                        const struct gemm_args *g, intnat p0, intnat kb,
                        const intnat *oj, const intnat *yj, const intnat *xj,
                        const intnat *rj, intnat nv, intnat ylo, intnat limy,
                        intnat xlo, intnat limx, double *bq)
{
  const double *src = g->src;
  const value *rows = g->rows + 3 * p0;
  intnat h = g->h, w = g->w;
  for (intnat p = 0; p < kb; p++, bq += 8) {
    intnat op = Long_val(rows[3 * p]), yp = Long_val(rows[3 * p + 1]),
           xp = Long_val(rows[3 * p + 2]);
    if (mode == RUN) {
      intnat y = yp + yj[0], x = xp + xj[0];
      intnat lo = x < 0 ? -x : 0, hi = w - x < width ? w - x : width;
      int in = (uintnat)y < (uintnat)h;
      if (in && lo == 0 && hi == width) {
        memcpy(bq, src + op + oj[0] + y * w + x, width * sizeof(double));
      } else {
        for (int t = 0; t < width; t++)
          bq[t] = 0.;
        if (in)
          for (intnat t = lo; t < hi; t++)
            bq[t] = src[op + oj[0] + y * w + x + t];
      }
    } else if (mode == INTERIOR && (uintnat)(yp + ylo) < (uintnat)limy
               && (uintnat)(xp + xlo) < (uintnat)limx) {
      const double *s = src + op + yp * w + xp;
      for (int t = 0; t < width; t++)
        bq[t] = s[rj[t]];
    } else {
      for (int t = 0; t < width; t++) {
        intnat y = yp + yj[t], x = xp + xj[t];
        int in = (t < nv) & ((uintnat)y < (uintnat)h) & ((uintnat)x < (uintnat)w);
        double v = src[in ? op + oj[t] + y * w + x : 0];
        bq[t] = in ? v : 0.;
      }
    }
  }
}

/* Whether the width columns are consecutive pixels of one image row. */
INLINE int run(const intnat *o, const intnat *y, const intnat *x, int width)
{
  for (int t = 1; t < width; t++)
    if (o[t] != o[0] || y[t] != y[0] || x[t] != x[0] + t)
      return 0;
  return 1;
}

/* Rows [p0, p0 + kb) of one quad, nv of its columns valid, in the mode
 * its descriptors allow. */
INLINE void gather_quad(const struct gemm_args *g, intnat p0, intnat kb,
                        const intnat *o, const intnat *y, const intnat *x,
                        const intnat *r, intnat nv, double *bq)
{
  intnat ylo = y[0], yhi = y[0], xlo = x[0], xhi = x[0];
  for (int t = 1; t < 4; t++) {
    ylo = y[t] < ylo ? y[t] : ylo;
    yhi = y[t] > yhi ? y[t] : yhi;
    xlo = x[t] < xlo ? x[t] : xlo;
    xhi = x[t] > xhi ? x[t] : xhi;
  }
  intnat limy = g->h - (yhi - ylo), limx = g->w - (xhi - xlo);
  if (nv == 4 && run(o, y, x, 4))
    gather_rows(RUN, 4, g, p0, kb, o, y, x, r, nv, 0, 0, 0, 0, bq);
  else if (nv == 4 && limy > 0 && limx > 0)
    gather_rows(INTERIOR, 4, g, p0, kb, o, y, x, r, nv, ylo, limy, xlo, limx,
                bq);
  else
    gather_rows(EDGE, 4, g, p0, kb, o, y, x, r, nv, 0, 0, 0, 0, bq);
}

/* Rows [p0, p0 + kb) of the nc <= 8 columns from j0 into buf (kb x 8,
 * row-major), with 0. in columns nc..7: in one pass when the 8 columns
 * are one run of an image row (pixels along an output row, or a dense
 * matrix), else quad by quad. */
INLINE void gather_block(const struct gemm_args *g, intnat p0, intnat kb,
                         intnat j0, intnat nc, double *buf)
{
  if (g->h <= 0 || g->w <= 0) {
    /* an empty image: every element is outside it */
    memset(buf, 0, kb * 8 * sizeof(double));
    return;
  }
  intnat oj[8] = { 0 }, yj[8] = { 0 }, xj[8] = { 0 }, rj[8] = { 0 };
  for (intnat t = 0; t < nc; t++) {
    const value *d = g->cols + 3 * (j0 + t);
    oj[t] = Long_val(d[0]);
    yj[t] = Long_val(d[1]);
    xj[t] = Long_val(d[2]);
    /* used only where the quad is inside the image, where it cannot
     * wrap; elsewhere wrapping (defined, unsigned) is harmless */
    rj[t] = (intnat)((uintnat)oj[t] + (uintnat)yj[t] * (uintnat)g->w
                     + (uintnat)xj[t]);
  }
  if (nc == 8 && run(oj, yj, xj, 8)) {
    gather_rows(RUN, 8, g, p0, kb, oj, yj, xj, rj, 8, 0, 0, 0, 0, buf);
  } else {
    gather_quad(g, p0, kb, oj, yj, xj, rj, nc < 4 ? nc : 4, buf);
    gather_quad(g, p0, kb, oj + 4, yj + 4, xj + 4, rj + 4,
                nc < 4 ? 0 : nc - 4, buf + 4);
  }
}

/* mr <= 4 rows x 8 columns of c (row stride ldc) += a (row stride lda)
 * . buf over kb terms.  mr is a constant at every call site, so the
 * unused rows fold away. */
INLINE void tile(const int mr, intnat kb, const double *a, intnat lda,
                 const double *buf, double *c, intnat ldc)
{
  const double *a0 = a, *a1 = mr > 1 ? a + lda : a,
               *a2 = mr > 2 ? a + 2 * lda : a, *a3 = mr > 3 ? a + 3 * lda : a;
  double *c1 = mr > 1 ? c + ldc : c, *c2 = mr > 2 ? c + 2 * ldc : c,
         *c3 = mr > 3 ? c + 3 * ldc : c;
  v4d z = splat(0.);
  v4d s00 = load4(c), s01 = load4(c + 4);
  v4d s10 = mr > 1 ? load4(c1) : z, s11 = mr > 1 ? load4(c1 + 4) : z;
  v4d s20 = mr > 2 ? load4(c2) : z, s21 = mr > 2 ? load4(c2 + 4) : z;
  v4d s30 = mr > 3 ? load4(c3) : z, s31 = mr > 3 ? load4(c3 + 4) : z;
  for (intnat p = 0; p < kb; p++) {
    v4d b0 = load4(buf + 8 * p), b1 = load4(buf + 8 * p + 4);
    v4d x = splat(a0[p]);
    s00 = s00 + x * b0;
    s01 = s01 + x * b1;
    if (mr > 1) {
      x = splat(a1[p]);
      s10 = s10 + x * b0;
      s11 = s11 + x * b1;
    }
    if (mr > 2) {
      x = splat(a2[p]);
      s20 = s20 + x * b0;
      s21 = s21 + x * b1;
    }
    if (mr > 3) {
      x = splat(a3[p]);
      s30 = s30 + x * b0;
      s31 = s31 + x * b1;
    }
  }
  store4(c, s00);
  store4(c + 4, s01);
  if (mr > 1) {
    store4(c1, s10);
    store4(c1 + 4, s11);
  }
  if (mr > 2) {
    store4(c2, s20);
    store4(c2 + 4, s21);
  }
  if (mr > 3) {
    store4(c3, s30);
    store4(c3 + 4, s31);
  }
}

/* The tile on rows [i, i + mr) of the block at column j0 (nc columns
 * valid); a partial block runs on a zero-padded copy of its outputs. */
INLINE void tile_rows(const int mr, const struct gemm_args *g, intnat i,
                      intnat p0, intnat kb, intnat j0, intnat nc,
                      const double *buf)
{
  const double *a = g->a + i * g->k + p0;
  double *c = g->out + i * g->n + j0;
  if (nc == 8) {
    tile(mr, kb, a, g->k, buf, c, g->n);
  } else {
    double ct[4 * 8] = { 0. };
    for (int r = 0; r < mr; r++)
      memcpy(ct + 8 * r, c + r * g->n, nc * sizeof(double));
    tile(mr, kb, a, g->k, buf, ct, 8);
    for (int r = 0; r < mr; r++)
      memcpy(c + r * g->n, ct + 8 * r, nc * sizeof(double));
  }
}

/* The band: rows [i0, i1) x column blocks [b0, b1); per block, slabs
 * of p ascending, each gathered once for all the band's row tiles. */
static void gemm(const struct gemm_args *g)
{
  double buf[KB * 8] __attribute__((aligned(64)));
  for (intnat blk = g->b0; blk < g->b1; blk++) {
    intnat j0 = blk << 3, nc = g->n - j0 < 8 ? g->n - j0 : 8;
    for (intnat p0 = 0; p0 < g->k; p0 += KB) {
      intnat kb = g->k - p0 < KB ? g->k - p0 : KB;
      gather_block(g, p0, kb, j0, nc, buf);
      intnat i = g->i0;
      for (; i + 4 <= g->i1; i += 4)
        tile_rows(4, g, i, p0, kb, j0, nc, buf);
      switch (g->i1 - i) {
      case 3: tile_rows(3, g, i, p0, kb, j0, nc, buf); break;
      case 2: tile_rows(2, g, i, p0, kb, j0, nc, buf); break;
      case 1: tile_rows(1, g, i, p0, kb, j0, nc, buf); break;
      default: break;
      }
    }
  }
}

#undef load4
#undef store4
#undef splat
#undef gather_rows
#undef run
#undef gather_quad
#undef gather_block
#undef tile
#undef tile_rows
#undef gemm
