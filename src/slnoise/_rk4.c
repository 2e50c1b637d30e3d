/* The RK4 kernel of slnoise.dynamics.integrate_blocks, in C.
 *
 * sln_rk4 integrates columns c0 .. c1-1 of one block and is called from
 * Python through ctypes, which releases the interpreter lock, so that
 * column slabs of one block run on several threads at once.  Every
 * operation is that of the numpy kernel, in its order and with its
 * operands in their order: the noise of a half step is formed as
 * (eta + f*eta0)*2a - eps and (nu + nu0/f)*ia, the right-hand side and
 * the stage sums are the same chain of complex multiplies, adds and
 * subtracts, and the divergence check decides as np.abs(x) <= threshold
 * does.  The complex multiply is numpy's fused form,
 * re = fma(ar, br, -(ai*bi)) and im = fma(ar, bi, ai*br); the caller
 * checks that the library reproduces numpy before it uses it.  Build
 * with -ffp-contract=off and never with -ffast-math, or the compiler
 * reassociates and fuses what numpy does not.
 *
 * The columns are worked through in tiles of at most TILE consecutive
 * trajectories of one factor row.  A tile's state, its stages and the
 * noise of three half steps are held in split real and imaginary arrays
 * on the stack, so the inner loops run over the tile's columns.
 */

#include <math.h>
#include <stdint.h>

#define TILE 16
#define INLINE static inline __attribute__((always_inline))

typedef struct {
    /* (nh, rows) complex noise, time-major; eta0/nu0 are NULL unless the
       batch carries a rescaled cross-correlative pair */
    const double *eta, *nu, *eta0, *nu0;
    const double *factor;        /* (n_points, rows) rescale factors */
    const double *eps, *delta;   /* (nh,) drives at the half steps */
    double *y;                   /* (2, 4, width): state, real then imag */
    double *block;               /* (block steps, 4, width) complex */
    int64_t *first_div, *new_div;  /* (width,) */
    int64_t rows, width;
    /* complex constants of the numpy kernel; those not given have a zero
       imaginary part */
    double two_alpha, i_alpha_re, i_alpha_im, half_h, full_h, two, sixth_h;
    double threshold;
} sln_run;

INLINE void cmul(double ar, double ai, double br, double bi,
                 double *re, double *im)
{
    *re = fma(ar, br, -(ai * bi));
    *im = fma(ar, bi, ai * br);
}

/* Noise terms -w = 2a*eta' - eps and v = ia*nu' at half step k, for the
   n columns of factor row l that start at trajectory r0; rat and scl are
   numpy's Smith-division terms of each column's factor. */
INLINE void noise(const sln_run *p, int64_t k, int64_t l, int64_t r0,
                  int n, const double *rat, const double *scl,
                  double *mwr, double *mwi, double *vr, double *vi)
{
    const int64_t at = 2 * (k * p->rows + r0);
    const double *eta = p->eta + at, *nu = p->nu + at;
    const double eps = p->eps[k];
    if (p->eta0) {
        const double *eta0 = p->eta0 + at, *nu0 = p->nu0 + at;
        const double *f = p->factor + l * p->rows + r0;
        for (int c = 0; c < n; c++) {
            double ar, ai, br, bi;
            cmul(eta0[2 * c], eta0[2 * c + 1], f[c], 0.0, &ar, &ai);
            ar = ar + eta[2 * c];
            ai = ai + eta[2 * c + 1];
            cmul(ar, ai, p->two_alpha, 0.0, &ar, &ai);
            mwr[c] = ar - eps;
            mwi[c] = ai - 0.0;
            br = (nu0[2 * c] + nu0[2 * c + 1] * rat[c]) * scl[c];
            bi = (nu0[2 * c + 1] - nu0[2 * c] * rat[c]) * scl[c];
            br = br + nu[2 * c];
            bi = bi + nu[2 * c + 1];
            cmul(br, bi, p->i_alpha_re, p->i_alpha_im, &vr[c], &vi[c]);
        }
    } else {
        for (int c = 0; c < n; c++) {
            double ar, ai;
            cmul(eta[2 * c], eta[2 * c + 1], p->two_alpha, 0.0, &ar, &ai);
            mwr[c] = ar - eps;
            mwi[c] = ai - 0.0;
            cmul(nu[2 * c], nu[2 * c + 1], p->i_alpha_re, p->i_alpha_im,
                 &vr[c], &vi[c]);
        }
    }
}

/* (-w sy, w sx - d sz, d sy + v tr, v sz) from -w and -d, as numpy forms
   it: o1 = (-d) sz - (-w) sx and o2 = v tr - (-d) sy.  s and o hold the
   four components' real parts, then their imaginary parts. */
INLINE void rhs(const double *s, double mwr, double mwi, double vr,
                double vi, double mdr, double mdi, double *o)
{
    double tr_, ti_;
    cmul(mwr, mwi, s[1], s[5], &o[0], &o[4]);
    cmul(mdr, mdi, s[2], s[6], &o[1], &o[5]);
    cmul(mwr, mwi, s[0], s[4], &tr_, &ti_);
    o[1] = o[1] - tr_;
    o[5] = o[5] - ti_;
    cmul(vr, vi, s[3], s[7], &o[2], &o[6]);
    cmul(mdr, mdi, s[1], s[5], &tr_, &ti_);
    o[2] = o[2] - tr_;
    o[6] = o[6] - ti_;
    cmul(vr, vi, s[2], s[6], &o[3], &o[7]);
}

/* a + b*(c + 0i), component by component */
INLINE void axpy(const double *a, const double *b, double c, double *out)
{
    for (int q = 0; q < 4; q++) {
        double re, im;
        cmul(b[q], b[q + 4], c, 0.0, &re, &im);
        out[q] = a[q] + re;
        out[q + 4] = a[q + 4] + im;
    }
}

/* |x| <= threshold for every component of column c, as np.abs (hypot)
   decides it; false for inf and nan */
INLINE int within(const double (*y)[TILE], int c, double threshold)
{
    for (int q = 0; q < 4; q++)
        if (!(hypot(y[q][c], y[q + 4][c]) <= threshold))
            return 0;
    return 1;
}

INLINE void tile(const sln_run *p, int64_t start, int64_t m, int64_t l,
                 int64_t r0, int n)
{
    const int64_t c0 = l * p->rows + r0, width = p->width;
    const double half_t = 0.5 * p->threshold;
    double y[8][TILE], rat[TILE], scl[TILE];
    double nz[3][4][TILE];  /* -w, v of three half steps, re and im */
    double (*a)[TILE] = nz[0], (*b)[TILE] = nz[1], (*e)[TILE] = nz[2];
    int ok[TILE];

    for (int q = 0; q < 8; q++)
        for (int c = 0; c < n; c++)
            y[q][c] = p->y[q * width + c0 + c];
    if (p->eta0) {
        const double *f = p->factor + c0;
        for (int c = 0; c < n; c++) {
            rat[c] = 0.0 / f[c];
            scl[c] = 1.0 / (f[c] + 0.0 * rat[c]);
        }
    }
    for (int c = 0; c < n; c++)
        p->new_div[c0 + c] = -1;
    /* the first step's first half step */
    noise(p, start > 0 ? 2 * start - 2 : 0, l, r0, n, rat, scl,
          a[0], a[1], a[2], a[3]);

    for (int64_t j = 0; j < m; j++) {
        const int64_t i = start + j;
        if (i > 0) {
            const int64_t k = 2 * (i - 1);
            const double md0r = -p->delta[k], md1r = -p->delta[k + 1],
                         md2r = -p->delta[k + 2], mdi = -0.0;
            noise(p, k + 1, l, r0, n, rat, scl, b[0], b[1], b[2], b[3]);
            noise(p, k + 2, l, r0, n, rat, scl, e[0], e[1], e[2], e[3]);
            for (int c = 0; c < n; c++) {
                double s[8], k1[8], k2[8], k3[8], k4[8], ys[8];
                for (int q = 0; q < 8; q++)
                    s[q] = y[q][c];
                rhs(s, a[0][c], a[1][c], a[2][c], a[3][c], md0r, mdi, k1);
                axpy(s, k1, p->half_h, ys);
                rhs(ys, b[0][c], b[1][c], b[2][c], b[3][c], md1r, mdi, k2);
                axpy(s, k2, p->half_h, ys);
                rhs(ys, b[0][c], b[1][c], b[2][c], b[3][c], md1r, mdi, k3);
                axpy(s, k3, p->full_h, ys);
                rhs(ys, e[0][c], e[1][c], e[2][c], e[3][c], md2r, mdi, k4);
                /* y + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right */
                axpy(k1, k2, p->two, k1);
                axpy(k1, k3, p->two, k1);
                for (int q = 0; q < 8; q++)
                    k1[q] = k1[q] + k4[q];
                axpy(s, k1, p->sixth_h, s);
                for (int q = 0; q < 8; q++)
                    y[q][c] = s[q];
            }
            double (*t)[TILE] = a;
            a = e;
            e = t;
            /* |re|, |im| <= threshold/2 implies |x| <= threshold, and
               fails for inf and nan: hypot only where it does not hold */
            for (int c = 0; c < n; c++) {
                int good = 1;
                for (int q = 0; q < 8; q++)
                    good &= fabs(y[q][c]) <= half_t;
                ok[c] = good;
            }
            for (int c = 0; c < n; c++)
                if (!ok[c] && p->first_div[c0 + c] < 0
                        && !within(y, c, p->threshold))
                    p->first_div[c0 + c] = p->new_div[c0 + c] = i;
        }
        double *row = p->block + 2 * (j * 4 * width + c0);
        for (int q = 0; q < 4; q++)
            for (int c = 0; c < n; c++) {
                row[2 * (q * width + c)] = y[q][c];
                row[2 * (q * width + c) + 1] = y[q + 4][c];
            }
    }
    for (int q = 0; q < 8; q++)
        for (int c = 0; c < n; c++)
            p->y[q * width + c0 + c] = y[q][c];
}

/* Steps start .. start+m-1 of columns c0 .. c1-1 into block rows 0 .. m-1;
   new_div[c] is the step at which column c first crossed the threshold
   in this block, else -1. */
void sln_rk4(const sln_run *p, int64_t start, int64_t m, int64_t c0,
             int64_t c1)
{
    for (int64_t c = c0; c < c1;) {
        const int64_t l = c / p->rows, r = c % p->rows;
        int64_t n = p->rows - r;
        if (n > c1 - c)
            n = c1 - c;
        if (n > TILE)
            n = TILE;
        tile(p, start, m, l, r, (int)n);
        c += n;
    }
}
