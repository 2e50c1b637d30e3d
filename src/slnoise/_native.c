/* The native kernels of slnoise, in C: the RK4 kernel of
 * slnoise.dynamics.integrate_blocks (sln_rk4), the unit-normal draw of
 * slnoise.noise.Synthesizer._draw (sln_normals), the spectral pass and
 * the FFTs of slnoise.noise.Synthesizer's colouring (sln_mix, sln_fft),
 * and the in-order ensemble sums of
 * slnoise.ensemble (sln_sums).  All are called from Python through
 * ctypes, which releases the interpreter lock, so that several threads
 * run them at once.  Each gives the bits of its numpy counterpart (of
 * scipy.fft, for sln_fft), and the caller checks that it does before it
 * uses it.  Build with -ffp-contract=off and never with -ffast-math, or
 * the compiler reassociates and fuses what numpy does not.  Even so, gcc
 * 12 with -mfma vectorizes a scalar complex multiply into vfmaddsub or
 * vfmsubadd, one rounding where numpy has two: write complex arithmetic
 * that must round as numpy's does as sln_fft does, in split real and
 * imaginary vectors, and check the object code for those instructions.
 *
 * Where it is compiled for AVX-512F and DQ, sln_normals makes each
 * stream's Philox blocks sixteen at a time in 512-bit vector lanes and
 * takes the ziggurat's rectangle test eight draws at a time; the scalar
 * code that every build has makes the same numbers.
 *
 * sln_rk4 integrates columns c0 .. c1-1 of one block.  Every operation
 * is that of the numpy kernel, in its order and with its operands in
 * their order: the noise of a half step is formed as
 * (eta + f*eta0)*2a - eps and (nu + nu0/f)*ia, the right-hand side and
 * the stage sums are the same chain of complex multiplies, adds and
 * subtracts, and the divergence check decides as np.abs(x) <= threshold
 * does.  The complex multiply is numpy's fused form,
 * re = fma(ar, br, -(ai*bi)) and im = fma(ar, bi, ai*br).
 *
 * The columns are worked through in tiles of at most TILE consecutive
 * trajectories of one factor row.  A tile's state, its stages and the
 * noise of three half steps are held in split real and imaginary arrays
 * on the stack, so the inner loops run over the tile's columns.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

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

/* |x| <= threshold for every component of column c, as np.abs decides
   it; false for inf and nan.  numpy's SIMD loop for the modulus of a
   complex is not libm's hypot but larger*sqrt(fma(r, r, 1)) with
   r = smaller/larger, which differs from hypot in the last bit for about
   a third of random values, and so decides otherwise near the threshold. */
INLINE int within(const double (*y)[TILE], int c, double threshold)
{
    for (int q = 0; q < 4; q++) {
        double a = fabs(y[q][c]), b = fabs(y[q + 4][c]);
        /* the modulus is at least the larger part */
        if (!(a <= threshold && b <= threshold))
            return 0;
        double big = a > b ? a : b, small = a > b ? b : a;
        double r = big > 0.0 ? small / big : 0.0;
        if (!(big * sqrt(fma(r, r, 1.0)) <= threshold))
            return 0;
    }
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
               fails for inf and nan: the modulus only where it does not hold */
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

/* Steps start .. start+m-1 of every column into block rows 0 .. m-1;
   new_div[c] is the step at which column c first crossed the threshold
   in this block, else -1. */
void sln_rk4(const sln_run *p, int64_t start, int64_t m)
{
    for (int64_t c = 0; c < p->width;) {
        const int64_t l = c / p->rows, r = c % p->rows;
        int64_t n = p->rows - r;
        if (n > p->width - c)
            n = p->width - c;
        if (n > TILE)
            n = TILE;
        tile(p, start, m, l, r, (int)n);
        c += n;
    }
}


/* ------------------------------------------------------------------
 * sln_normals: numpy's Generator(Philox(seed)).standard_normal.
 *
 * Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random
 * numbers: as easy as 1, 2, 3", SC'11) as numpy's Philox runs it: the
 * counter starts at 0 and is incremented before each block of four
 * outputs, which are used in order.  A stream makes sixteen blocks at a
 * time.  Where the compiler targets AVX-512F and DQ (the AVX-512 flags of
 * slnoise._native._compile_flags), they are two groups of eight blocks,
 * counters c+1 .. c+8 and c+9 .. c+16 in the eight 64-bit lanes of
 * 512-bit vectors, the rounds of the two groups interleaved: each
 * 64x64 -> 128-bit product is put together from four 32x32 -> 64-bit
 * products (_mm512_mul_epu32), and a 4x8 transpose per group writes the
 * lanes' words in stream order.  Elsewhere, and for a counter whose low
 * word would carry within the sixteen, scalar code makes two blocks at a
 * time, their rounds interleaved.  The normals are numpy's ziggurat
 * (Marsaglia and Tsang, J. Stat. Softw. 5(8), 2000),
 * random_standard_normal operation for operation, with its tables.
 * With AVX-512, the rectangle test is taken for eight draws at once (see
 * sln_normals).  Where numpy negates x behind a branch that goes each way
 * half the time, the sign bit is XOR-ed in, which gives the same bits
 * without the mispredictions.
 */

#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

/* The ziggurat tables of numpy's random_standard_normal (ki_double,
 * wi_double and fi_double of numpy/random/src/distributions/
 * ziggurat_constants.h, written here as exact hexadecimal literals),
 * with its radius r and 1/r.  They are NumPy's, under its licence:
 *
 * Copyright (c) 2005-2025, NumPy Developers.
 * All rights reserved.
 *
 * Redistribution and use in source and binary forms, with or without
 * modification, are permitted provided that the following conditions are
 * met:
 *
 *     * Redistributions of source code must retain the above copyright
 *        notice, this list of conditions and the following disclaimer.
 *
 *     * Redistributions in binary form must reproduce the above
 *        copyright notice, this list of conditions and the following
 *        disclaimer in the documentation and/or other materials provided
 *        with the distribution.
 *
 *     * Neither the name of the NumPy Developers nor the names of any
 *        contributors may be used to endorse or promote products derived
 *        from this software without specific prior written permission.
 *
 * THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
 * "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
 * LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
 * A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
 * OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
 * SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
 * LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
 * DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
 * THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
 * (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
 * OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
 */
static const double ziggurat_nor_r = 3.6541528853610087963519472518;
static const double ziggurat_nor_inv_r = 0.27366123732975827203338247596;

static const uint64_t ki_double[256] = {
    0x0EF33D8025EF6AULL, 0x00000000000000ULL, 0x0C08BE98FBC6A8ULL,
    0x0DA354FABD8142ULL, 0x0E51F67EC1EEEAULL, 0x0EB255E9D3F77EULL,
    0x0EEF4B817ECAB9ULL, 0x0F19470AFA44AAULL, 0x0F37ED61FFCB18ULL,
    0x0F4F469561255CULL, 0x0F61A5E41BA396ULL, 0x0F707A755396A4ULL,
    0x0F7CB2EC28449AULL, 0x0F86F10C6357D3ULL, 0x0F8FA6578325DEULL,
    0x0F9724C74DD0DAULL, 0x0F9DA907DBF509ULL, 0x0FA360F581FA74ULL,
    0x0FA86FDE5B4BF8ULL, 0x0FACF160D354DCULL, 0x0FB0FB6718B90FULL,
    0x0FB49F8D5374C6ULL, 0x0FB7EC2366FE77ULL, 0x0FBAECE9A1E50EULL,
    0x0FBDAB9D040BEDULL, 0x0FC03060FF6C57ULL, 0x0FC2821037A248ULL,
    0x0FC4A67AE25BD1ULL, 0x0FC6A2977AEE31ULL, 0x0FC87AA92896A4ULL,
    0x0FCA325E4BDE85ULL, 0x0FCBCCE902231AULL, 0x0FCD4D12F839C4ULL,
    0x0FCEB54D8FEC99ULL, 0x0FD007BF1DC930ULL, 0x0FD1464DD6C4E6ULL,
    0x0FD272A8E2F450ULL, 0x0FD38E4FF0C91EULL, 0x0FD49A9990B478ULL,
    0x0FD598B8920F53ULL, 0x0FD689C08E99ECULL, 0x0FD76EA9C8E832ULL,
    0x0FD848547B08E8ULL, 0x0FD9178BAD2C8CULL, 0x0FD9DD07A7ADD2ULL,
    0x0FDA9970105E8CULL, 0x0FDB4D5DC02E20ULL, 0x0FDBF95C5BFCD0ULL,
    0x0FDC9DEBB99A7DULL, 0x0FDD3B8118729DULL, 0x0FDDD288342F90ULL,
    0x0FDE6364369F64ULL, 0x0FDEEE708D514EULL, 0x0FDF7401A6B42EULL,
    0x0FDFF46599ED40ULL, 0x0FE06FE4BC24F2ULL, 0x0FE0E6C225A258ULL,
    0x0FE1593C28B84CULL, 0x0FE1C78CBC3F99ULL, 0x0FE231E9DB1CAAULL,
    0x0FE29885DA1B91ULL, 0x0FE2FB8FB54186ULL, 0x0FE35B33558D4AULL,
    0x0FE3B799D0002AULL, 0x0FE410E99EAD7FULL, 0x0FE46746D47734ULL,
    0x0FE4BAD34C095CULL, 0x0FE50BAED29524ULL, 0x0FE559F74EBC78ULL,
    0x0FE5A5C8E41212ULL, 0x0FE5EF3E138689ULL, 0x0FE6366FD91078ULL,
    0x0FE67B75C6D578ULL, 0x0FE6BE661E11AAULL, 0x0FE6FF55E5F4F2ULL,
    0x0FE73E5900A702ULL, 0x0FE77B823E9E39ULL, 0x0FE7B6E37070A2ULL,
    0x0FE7F08D774243ULL, 0x0FE8289053F08CULL, 0x0FE85EFB35173AULL,
    0x0FE893DC840864ULL, 0x0FE8C741F0CEBCULL, 0x0FE8F9387D4EF6ULL,
    0x0FE929CC879B1DULL, 0x0FE95909D388EAULL, 0x0FE986FB939AA2ULL,
    0x0FE9B3AC714866ULL, 0x0FE9DF2694B6D5ULL, 0x0FEA0973ABE67CULL,
    0x0FEA329CF166A4ULL, 0x0FEA5AAB32952CULL, 0x0FEA81A6D5741AULL,
    0x0FEAA797DE1CF0ULL, 0x0FEACC85F3D920ULL, 0x0FEAF07865E63CULL,
    0x0FEB13762FEC13ULL, 0x0FEB3585FE2A4AULL, 0x0FEB56AE3162B4ULL,
    0x0FEB76F4E284FAULL, 0x0FEB965FE62014ULL, 0x0FEBB4F4CF9D7CULL,
    0x0FEBD2B8F449D0ULL, 0x0FEBEFB16E2E3EULL, 0x0FEC0BE31EBDE8ULL,
    0x0FEC2752B15A15ULL, 0x0FEC42049DAFD3ULL, 0x0FEC5BFD29F196ULL,
    0x0FEC75406CEEF4ULL, 0x0FEC8DD2500CB4ULL, 0x0FECA5B6911F12ULL,
    0x0FECBCF0C427FEULL, 0x0FECD38454FB15ULL, 0x0FECE97488C8B3ULL,
    0x0FECFEC47F91B7ULL, 0x0FED1377358528ULL, 0x0FED278F844903ULL,
    0x0FED3B10242F4CULL, 0x0FED4DFBAD586EULL, 0x0FED605498C3DDULL,
    0x0FED721D414FE8ULL, 0x0FED8357E4A982ULL, 0x0FED9406A42CC8ULL,
    0x0FEDA42B85B704ULL, 0x0FEDB3C8746AB4ULL, 0x0FEDC2DF416652ULL,
    0x0FEDD171A46E52ULL, 0x0FEDDF813C8AD3ULL, 0x0FEDED0F909980ULL,
    0x0FEDFA1E0FD414ULL, 0x0FEE06AE124BC4ULL, 0x0FEE12C0D95A06ULL,
    0x0FEE1E579006E0ULL, 0x0FEE29734B6524ULL, 0x0FEE34150AE4BCULL,
    0x0FEE3E3DB89B3CULL, 0x0FEE47EE2982F4ULL, 0x0FEE51271DB086ULL,
    0x0FEE59E9407F41ULL, 0x0FEE623528B42EULL, 0x0FEE6A0B5897F1ULL,
    0x0FEE716C3E077AULL, 0x0FEE7858327B82ULL, 0x0FEE7ECF7B06BAULL,
    0x0FEE84D2484AB2ULL, 0x0FEE8A60B66343ULL, 0x0FEE8F7ACCC851ULL,
    0x0FEE94207E25DAULL, 0x0FEE9851A829EAULL, 0x0FEE9C0E13485CULL,
    0x0FEE9F557273F4ULL, 0x0FEEA22762CCAEULL, 0x0FEEA4836B42ACULL,
    0x0FEEA668FC2D71ULL, 0x0FEEA7D76ED6FAULL, 0x0FEEA8CE04FA0AULL,
    0x0FEEA94BE8333BULL, 0x0FEEA950296410ULL, 0x0FEEA8D9C0075EULL,
    0x0FEEA7E7897654ULL, 0x0FEEA678481D24ULL, 0x0FEEA48AA29E83ULL,
    0x0FEEA21D22E4DAULL, 0x0FEE9F2E352024ULL, 0x0FEE9BBC26AF2EULL,
    0x0FEE97C524F2E4ULL, 0x0FEE93473C0A3AULL, 0x0FEE8E40557516ULL,
    0x0FEE88AE369C7AULL, 0x0FEE828E7F3DFDULL, 0x0FEE7BDEA7B888ULL,
    0x0FEE749BFF37FFULL, 0x0FEE6CC3A9BD5EULL, 0x0FEE64529E007EULL,
    0x0FEE5B45A32888ULL, 0x0FEE51994E57B6ULL, 0x0FEE474A0006CFULL,
    0x0FEE3C53E12C50ULL, 0x0FEE30B2E02AD8ULL, 0x0FEE2462AD8205ULL,
    0x0FEE175EB83C5AULL, 0x0FEE09A22A1447ULL, 0x0FEDFB27E349CCULL,
    0x0FEDEBEA76216CULL, 0x0FEDDBE422047EULL, 0x0FEDCB0ECE39D3ULL,
    0x0FEDB964042CF4ULL, 0x0FEDA6DCE938C9ULL, 0x0FED937237E98DULL,
    0x0FED7F1C38A836ULL, 0x0FED69D2B9C02BULL, 0x0FED538D06AE00ULL,
    0x0FED3C41DEA422ULL, 0x0FED23E76A2FD8ULL, 0x0FED0A732FE644ULL,
    0x0FECEFDA07FE34ULL, 0x0FECD4100EB7B8ULL, 0x0FECB708956EB4ULL,
    0x0FEC98B61230C1ULL, 0x0FEC790A0DA978ULL, 0x0FEC57F50F31FEULL,
    0x0FEC356686C962ULL, 0x0FEC114CB4B335ULL, 0x0FEBEB948E6FD0ULL,
    0x0FEBC429A0B692ULL, 0x0FEB9AF5EE0CDCULL, 0x0FEB6FE1C98542ULL,
    0x0FEB42D3AD1F9EULL, 0x0FEB13B00B2D4BULL, 0x0FEAE2591A02E9ULL,
    0x0FEAAEAE992257ULL, 0x0FEA788D8EE326ULL, 0x0FEA3FCFFD73E5ULL,
    0x0FEA044C8DD9F6ULL, 0x0FE9C5D62F563BULL, 0x0FE9843BA947A4ULL,
    0x0FE93F471D4728ULL, 0x0FE8F6BD76C5D6ULL, 0x0FE8AA5DC4E8E6ULL,
    0x0FE859E07AB1EAULL, 0x0FE804F690A940ULL, 0x0FE7AB488233C0ULL,
    0x0FE74C751F6AA5ULL, 0x0FE6E8102AA202ULL, 0x0FE67DA0B6ABD8ULL,
    0x0FE60C9F38307EULL, 0x0FE5947338F742ULL, 0x0FE51470977280ULL,
    0x0FE48BD436F458ULL, 0x0FE3F9BFFD1E37ULL, 0x0FE35D35EEB19CULL,
    0x0FE2B5122FE4FEULL, 0x0FE20003995557ULL, 0x0FE13C82788314ULL,
    0x0FE068C4EE67B0ULL, 0x0FDF82B02B71AAULL, 0x0FDE87C57EFEAAULL,
    0x0FDD7509C63BFDULL, 0x0FDC46E529BF13ULL, 0x0FDAF8F82E0282ULL,
    0x0FD985E1B2BA75ULL, 0x0FD7E6EF48CF04ULL, 0x0FD613ADBD650BULL,
    0x0FD40149E2F012ULL, 0x0FD1A1A7B4C7ACULL, 0x0FCEE204761F9EULL,
    0x0FCBA8D85E11B2ULL, 0x0FC7D26ECD2D22ULL, 0x0FC32B2F1E22EDULL,
    0x0FBD6581C0B83AULL, 0x0FB606C4005434ULL, 0x0FAC40582A2874ULL,
    0x0F9E971E014598ULL, 0x0F89FA48A41DFCULL, 0x0F66C5F7F0302CULL,
    0x0F1A5A4B331C4AULL};

static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54,
    0x1.57cb938443b61p-54, 0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54,
    0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54, 0x1.f32482d4cd5c3p-54,
    0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53,
    0x1.3bd9ec1a2b12fp-53, 0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53,
    0x1.52575621ad374p-53, 0x1.59580a707ce96p-53, 0x1.60231cfd97eeap-53,
    0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53,
    0x1.8b1649e7b769ap-53, 0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53,
    0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53, 0x1.a62676d77cd59p-53,
    0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53,
    0x1.c8a13a5323b61p-53, 0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53,
    0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53, 0x1.df73aa9f17653p-53,
    0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53,
    0x1.fd8537dfa2eacp-53, 0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52,
    0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52, 0x1.08f869071f40bp-52,
    0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52,
    0x1.16b08bfc4201ep-52, 0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52,
    0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52, 0x1.2028a9940a09fp-52,
    0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52,
    0x1.2d0d862e1b853p-52, 0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52,
    0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52, 0x1.360e2baca52d5p-52,
    0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52,
    0x1.426fb2da6745dp-52, 0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52,
    0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52, 0x1.4b287f602415dp-52,
    0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52,
    0x1.574000e555f78p-52, 0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52,
    0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52, 0x1.5fd4fc89f5e38p-52,
    0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52,
    0x1.6bd01e8b343bbp-52, 0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52,
    0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52, 0x1.745f7dc70eedcp-52,
    0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52,
    0x1.80667a486ea1fp-52, 0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52,
    0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52, 0x1.890c35f47f72dp-52,
    0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52,
    0x1.954627903a28ap-52, 0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52,
    0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52, 0x1.9e1ec2b6f7411p-52,
    0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52,
    0x1.aab563e9ff108p-52, 0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52,
    0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52, 0x1.b3e0aa0e00c00p-52,
    0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52,
    0x1.c10486cec16a0p-52, 0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52,
    0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52, 0x1.caa8fbd36a2abp-52,
    0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52,
    0x1.d8973f4d7fba5p-52, 0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52,
    0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52, 0x1.e2e74c4ea46f6p-52,
    0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52,
    0x1.f1f328ac25321p-52, 0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52,
    0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52, 0x1.fd360d22fe785p-52,
    0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51,
    0x1.06ed023a72668p-51, 0x1.082988f632e17p-51, 0x1.0969708e8a254p-51,
    0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51, 0x1.0d3ea34aa3d30p-51,
    0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51,
    0x1.16bf93b9deef3p-51, 0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51,
    0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51, 0x1.1e1ebfbe4ae39p-51,
    0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51,
    0x1.2982ecd770e78p-51, 0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51,
    0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51, 0x1.32a7b5e68a4a3p-51,
    0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51,
    0x1.417a49cb9e5dap-51, 0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51,
    0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51, 0x1.4e3250dcd8902p-51,
    0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51,
    0x1.653ce7b006aeap-51, 0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51,
    0x1.72728f05f7a34p-51, 0x1.7799556090673p-51, 0x1.7d42df4d6ce8cp-51,
    0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51,
    0x1.d3bb48209ad33p-51};

static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1,
    0x1.e3f11e027f077p-1, 0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1,
    0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1, 0x1.c6a5ecea9787fp-1,
    0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1,
    0x1.a748bd550c9e1p-1, 0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1,
    0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1, 0x1.94291c21b7a47p-1,
    0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1,
    0x1.7c29a779c6858p-1, 0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1,
    0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1, 0x1.6c7589e635a89p-1,
    0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1,
    0x1.57fe4264c8d8fp-1, 0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1,
    0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1, 0x1.4a42172dc5278p-1,
    0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1,
    0x1.380c32bda00d5p-1, 0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1,
    0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1, 0x1.2baaa14d7954ap-1,
    0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1,
    0x1.1b171573fd111p-1, 0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1,
    0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1, 0x1.0fbb3a2325913p-1,
    0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1,
    0x1.006dc85b8cac4p-1, 0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2,
    0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2, 0x1.ebc6e20bd1f54p-2,
    0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2,
    0x1.cf419b4ae5b6dp-2, 0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2,
    0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2, 0x1.bb8a4d6716d91p-2,
    0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2,
    0x1.a0c923946843ep-2, 0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2,
    0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2, 0x1.8e3e1fcb9f115p-2,
    0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2,
    0x1.7506769c7b1edp-2, 0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2,
    0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2, 0x1.6383d377be515p-2,
    0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2,
    0x1.4baa357109ca2p-2, 0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2,
    0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2, 0x1.3b1507cf143aep-2,
    0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2,
    0x1.2478a1f17de89p-2, 0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2,
    0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2, 0x1.14bc7bb34ee67p-2,
    0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2,
    0x1.fe88b89df93c5p-3, 0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3,
    0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3, 0x1.e0a3816457184p-3,
    0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3,
    0x1.b7d647a8731aap-3, 0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3,
    0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3, 0x1.9b6d2bfd2fe5ap-3,
    0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3,
    0x1.74a7c9c7ab5a6p-3, 0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3,
    0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3, 0x1.59aac88f31d6cp-3,
    0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3,
    0x1.34db805b4ab88p-3, 0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3,
    0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3, 0x1.1b41492757d42p-3,
    0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4,
    0x1.f0bff29520e1cp-4, 0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4,
    0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4, 0x1.c04d0680b1015p-4,
    0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4,
    0x1.7e6ca013eefd6p-4, 0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4,
    0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4, 0x1.50c9b06fa2baep-4,
    0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4,
    0x1.12f14d0f2179dp-4, 0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4,
    0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5, 0x1.d092efeadf162p-5,
    0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5,
    0x1.5dab23cf2add4p-5, 0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5,
    0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5, 0x1.0f1982e968011p-5,
    0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6,
    0x1.4d6eaf2fbb064p-6, 0x1.30d388dab5e13p-6, 0x1.1490334603012p-6,
    0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7, 0x1.841040d8da478p-7,
    0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9,
    0x1.4a605b6b9f70fp-10};

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>
#define PHILOX_AVX512 1
#endif

/* stream words held at once: sixteen blocks of four */
#define WORDS 64

typedef struct {
    uint64_t key[10][2];  /* the key of each round */
    uint64_t ctr[4], buf[WORDS];
    int pos;
} philox;

/* the stream of numpy's Philox with key k0, k1 and counter 0, before its
   first block */
INLINE void philox_init(philox *s, uint64_t k0, uint64_t k1)
{
    for (int r = 0; r < 10; r++) {
        s->key[r][0] = k0;
        s->key[r][1] = k1;
        k0 += PHILOX_W0;
        k1 += PHILOX_W1;
    }
    memset(s->ctr, 0, sizeof s->ctr);
    s->pos = WORDS;
}

INLINE void philox_round(uint64_t *c, const uint64_t *k)
{
    const unsigned __int128 p0 = (unsigned __int128)PHILOX_M0 * c[0];
    const unsigned __int128 p1 = (unsigned __int128)PHILOX_M1 * c[2];
    const uint64_t c1 = c[1], c3 = c[3];
    c[0] = (uint64_t)(p1 >> 64) ^ c1 ^ k[0];
    c[1] = (uint64_t)p1;
    c[2] = (uint64_t)(p0 >> 64) ^ c3 ^ k[1];
    c[3] = (uint64_t)p0;
}

INLINE void bump(uint64_t *ctr)
{
    if (++ctr[0] == 0 && ++ctr[1] == 0 && ++ctr[2] == 0)
        ++ctr[3];
}

/* the next two blocks of the stream into out[0 .. 7] */
INLINE void two_blocks(philox *s, uint64_t *out)
{
    uint64_t a[4], b[4];
    bump(s->ctr);
    memcpy(a, s->ctr, sizeof a);
    bump(s->ctr);
    memcpy(b, s->ctr, sizeof b);
    for (int r = 0; r < 10; r++) {
        philox_round(a, s->key[r]);
        philox_round(b, s->key[r]);
    }
    memcpy(out, a, sizeof a);
    memcpy(out + 4, b, sizeof b);
}

#ifdef PHILOX_AVX512
/* a >> 32 in each 64-bit lane, as a shuffle of 32-bit words, which runs
   on another port than the multiplies and shifts */
INLINE __m512i high_half(__m512i a)
{
    return _mm512_maskz_shuffle_epi32(0x5555, a, _MM_PERM_CDAB);
}

/* hi and lo words of m * a in each lane, from the four 32x32 -> 64-bit
   products of the halves: with t = hl + (ll >> 32) and
   w = lh + (t & low), hi = hh + (t >> 32) + (w >> 32) and
   lo = (w << 32) | (ll & low), none of which overflows */
INLINE void mulhilo8(__m512i a, uint64_t m, __m512i *hi, __m512i *lo)
{
    const __m512i m_lo = _mm512_set1_epi64(m & 0xffffffffULL);
    const __m512i m_hi = _mm512_set1_epi64(m >> 32);
    /* _mm512_mul_epu32 reads the low half of each lane only */
    const __m512i a_hi = _mm512_shuffle_epi32(a, _MM_PERM_CDAB);
    const __m512i ll = _mm512_mul_epu32(a, m_lo);
    const __m512i lh = _mm512_mul_epu32(a, m_hi);
    const __m512i hl = _mm512_mul_epu32(a_hi, m_lo);
    const __m512i hh = _mm512_mul_epu32(a_hi, m_hi);
    const __m512i t = _mm512_add_epi64(hl, high_half(ll));
    const __m512i w = _mm512_add_epi64(lh, _mm512_maskz_mov_epi32(0x5555, t));
    *hi = _mm512_add_epi64(_mm512_add_epi64(hh, high_half(t)), high_half(w));
    *lo = _mm512_mask_shuffle_epi32(ll, 0xaaaa, w, _MM_PERM_CDAB);
}

/* the next sixteen blocks of the stream into s->buf, for a counter whose
   low word does not carry within them: two groups of eight, their rounds
   interleaved, in which lane j of x[g][0 .. 3] is block 8g + j */
INLINE void sixteen_blocks(philox *s)
{
    __m512i x[2][4];
    for (int g = 0; g < 2; g++) {
        x[g][0] = _mm512_add_epi64(_mm512_set1_epi64(s->ctr[0] + 8 * g),
                                   _mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1));
        for (int w = 1; w < 4; w++)
            x[g][w] = _mm512_set1_epi64(s->ctr[w]);
    }
    for (int r = 0; r < 10; r++)
        for (int g = 0; g < 2; g++) {
            __m512i hi0, lo0, hi1, lo1;
            mulhilo8(x[g][0], PHILOX_M0, &hi0, &lo0);
            mulhilo8(x[g][2], PHILOX_M1, &hi1, &lo1);
            /* 0x96 is the three-way XOR */
            x[g][0] = _mm512_ternarylogic_epi64(hi1, x[g][1],
                                                _mm512_set1_epi64(s->key[r][0]), 0x96);
            x[g][1] = lo1;
            x[g][2] = _mm512_ternarylogic_epi64(hi0, x[g][3],
                                                _mm512_set1_epi64(s->key[r][1]), 0x96);
            x[g][3] = lo0;
        }
    s->ctr[0] += 16;
    /* a holds words 0 and 1 of blocks 0, 2, 4, 6 of the group and b those
       of blocks 1, 3, 5, 7; c and d words 2 and 3.  Each 128-bit quarter
       of the output takes one quarter of a, b, c or d. */
    for (int g = 0; g < 2; g++) {
        const __m512i a = _mm512_unpacklo_epi64(x[g][0], x[g][1]),
                      b = _mm512_unpackhi_epi64(x[g][0], x[g][1]),
                      c = _mm512_unpacklo_epi64(x[g][2], x[g][3]),
                      d = _mm512_unpackhi_epi64(x[g][2], x[g][3]);
        const __m512i ac01 = _mm512_shuffle_i64x2(a, c, 0x44),
                      bd01 = _mm512_shuffle_i64x2(b, d, 0x44),
                      ac23 = _mm512_shuffle_i64x2(a, c, 0xee),
                      bd23 = _mm512_shuffle_i64x2(b, d, 0xee);
        uint64_t *buf = s->buf + 32 * g;
        _mm512_storeu_si512(buf, _mm512_shuffle_i64x2(ac01, bd01, 0x88));
        _mm512_storeu_si512(buf + 8, _mm512_shuffle_i64x2(ac01, bd01, 0xdd));
        _mm512_storeu_si512(buf + 16, _mm512_shuffle_i64x2(ac23, bd23, 0x88));
        _mm512_storeu_si512(buf + 24, _mm512_shuffle_i64x2(ac23, bd23, 0xdd));
    }
}
#endif

/* the next sixteen blocks of the stream into buf */
INLINE void refill(philox *s)
{
    s->pos = 0;
#ifdef PHILOX_AVX512
    if (s->ctr[0] <= UINT64_MAX - 16) {
        sixteen_blocks(s);
        return;
    }
#endif
    for (int w = 0; w < WORDS; w += 8)
        two_blocks(s, s->buf + w);
}

INLINE uint64_t next_uint64(philox *s)
{
    if (s->pos == WORDS)
        refill(s);
    return s->buf[s->pos++];
}

INLINE double next_double(philox *s)
{
    return (next_uint64(s) >> 11) * (1.0 / 9007199254740992.0);
}

/* x = rabs * wi[idx] with the sign bit of r XOR-ed in */
INLINE double signed_x(uint64_t r, uint64_t rabs, int idx)
{
    double x = (double)(int64_t)rabs * wi_double[idx];
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits ^= (r & 0x1) << 63;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* numpy's random_standard_normal for a draw r (already shifted by 8)
   that fell outside the rectangle of its layer idx: the tail of layer 0
   or the wedge of another, and after a rejection the draws that follow */
static __attribute__((noinline)) double slow_normal(philox *s, uint64_t r,
                                                    int idx)
{
    for (;;) {
        const uint64_t rabs = (r >> 1) & 0x000fffffffffffffULL;
        const double x = signed_x(r, rabs, idx);
        if (rabs < ki_double[idx])
            return x;
        if (idx == 0) {
            for (;;) {
                const double xx = -ziggurat_nor_inv_r * log1p(-next_double(s));
                const double yy = -log1p(-next_double(s));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(ziggurat_nor_r + xx)
                                               : ziggurat_nor_r + xx;
            }
        }
        if ((fi_double[idx - 1] - fi_double[idx]) * next_double(s)
                + fi_double[idx] < exp(-0.5 * x * x))
            return x;
        r = next_uint64(s);
        idx = r & 0xff;
        r >>= 8;
    }
}

#ifdef PHILOX_AVX512
/* The rectangle test of the next count (1 .. 8) words of the buffer, side
   by side: ki and wi are gathered by each word's layer, x is formed as
   the scalar code forms it, and the normals of the leading words that
   fall in their rectangles go to o[0], o[2], ... in two masked stores.
   Returns how many. */
INLINE int rectangles(const uint64_t *words, int count, double *o)
{
    const __mmask8 valid = (__mmask8)((1u << count) - 1);
    const __m512i raw = _mm512_maskz_loadu_epi64(valid, words);
    const __m512i idx = _mm512_and_si512(raw, _mm512_set1_epi64(0xff));
    const __m512i r = _mm512_srli_epi64(raw, 8);
    const __m512i rabs = _mm512_and_si512(_mm512_srli_epi64(r, 1),
                                          _mm512_set1_epi64(0x000fffffffffffffLL));
    const __mmask8 in = _mm512_mask_cmplt_epu64_mask(
        valid, rabs, _mm512_i64gather_epi64(idx, ki_double, 8));
    /* the common case, that every draw is in, is branched on, so that the
       next group's load does not wait for the gathers */
    const int took = in == valid ? count : __builtin_ctz(~(unsigned)in);
    const __m512d x = _mm512_mul_pd(_mm512_cvtepi64_pd(rabs),
                                    _mm512_i64gather_pd(idx, wi_double, 8));
    const __m512d xs = _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(x),
                                                            _mm512_slli_epi64(r, 63)));
    const unsigned m = 0x5555u & ((1u << (2 * took)) - 1);
    _mm512_mask_storeu_pd(o, (__mmask8)m, _mm512_permutexvar_pd(
        _mm512_set_epi64(3, 3, 2, 2, 1, 1, 0, 0), xs));
    _mm512_mask_storeu_pd(o + 8, (__mmask8)(m >> 8), _mm512_permutexvar_pd(
        _mm512_set_epi64(7, 7, 6, 6, 5, 5, 4, 4), xs));
    return took;
}
#endif

/* The unit normals of rows streams, n per channel of each: the stream of
   row i is that of numpy's Philox with key keys[2i], keys[2i+1] and
   counter 0, and its normal ch*n + t goes to
   out[i*row_stride + offsets[ch] + 2*t]: each channel goes to the real
   or the imaginary parts of a complex buffer.
   The rectangles, 99.3 % of the draws, are taken inline; where AVX-512 is
   compiled in, eight draws at a time, or as many as are left in the
   buffer and the channel: the draws before the first one outside its
   rectangle are written, and that one goes through the scalar code, so
   that slow_normal consumes the stream exactly as numpy does.  The rest
   goes to slow_normal. */
void sln_normals(const uint64_t *keys, int64_t rows, int64_t channels,
                 int64_t n, double *out, int64_t row_stride,
                 const int64_t *offsets)
{
    for (int64_t i = 0; i < rows; i++) {
        philox s;
        philox_init(&s, keys[2 * i], keys[2 * i + 1]);
        int pos = WORDS;
        for (int64_t ch = 0; ch < channels; ch++) {
            double *o = out + i * row_stride + offsets[ch];
            for (int64_t j = 0; j < n;) {
                if (pos == WORDS) {
                    refill(&s);
                    pos = 0;
                }
#ifdef PHILOX_AVX512
                const int64_t count = n - j < WORDS - pos ? n - j : WORDS - pos;
                const int took = rectangles(s.buf + pos, count < 8 ? (int)count : 8,
                                            o + 2 * j);
                pos += took;
                j += took;
                if (took)
                    continue;
#endif
                uint64_t r = s.buf[pos++];
                const int idx = r & 0xff;
                r >>= 8;
                const uint64_t rabs = (r >> 1) & 0x000fffffffffffffULL;
                if (rabs < ki_double[idx]) {
                    o[2 * j] = signed_x(r, rabs, idx);
                } else {
                    s.pos = pos;
                    o[2 * j] = slow_normal(&s, r, idx);
                    pos = s.pos;
                }
                j++;
            }
        }
    }
}


/* ------------------------------------------------------------------
 * sln_mix: the spectral pass of the colouring.
 *
 * z holds, per realization, the inverse transforms z0 and z1 of the
 * packed white channels, and c receives a second pair of spectra; the
 * element (h, r, k) of z is the complex number at 2*(h*half + r*row + k),
 * that of c the one at 2*(h*chalf + r*crow + k).  With the conjugate
 * flips c0(k) = conj(z0(-k)), c1(k) = conj(z1(-k)) and the taps t0 .. t3
 * of the wiring, sln_mix forms, as numpy does in slnoise.noise._mix:
 *
 *   orthogonal, c NULL:  z0 <- (z0 + c0) t0 + z1 t1,  z1 <- c0 t2 + c1 t3
 *   orthogonal, c given: z0 <- (z0 + c0) t0,  z1 <- z1 t1,
 *                        c0 <- c0 t2,         c1 <- c1 t3
 *   convex:              z0 <- c0 t1 + t0 z0,  z1 <- z0 t2
 *
 * with numpy's fused complex multiply, its operands in numpy's order (the
 * multiply is not symmetric), and real taps given as complex ones with a
 * +0.0 imaginary part, as numpy casts them.  Bins k and n-k are taken
 * together, so the flips need no buffer and the pass runs in place.
 */

/* one complex number of a (2, rows, n) buffer */
INLINE void load(const double *a, int64_t k, double *re, double *im)
{
    *re = a[2 * k];
    *im = a[2 * k + 1];
}

INLINE void store(double *a, int64_t k, double re, double im)
{
    a[2 * k] = re;
    a[2 * k + 1] = im;
}

/* bin k of an orthogonal row from z0(k), z1(k) and the flips c0(k), c1(k) */
INLINE void orthogonal_bin(const double *t, int64_t n, int64_t k,
                           double z0r, double z0i, double z1r, double z1i,
                           double c0r, double c0i, double c1r, double c1i,
                           double *z0, double *z1, double *c0, double *c1)
{
    double er, ei, fr, fi, gr, gi, hr, hi;
    cmul(z0r + c0r, z0i + c0i, t[2 * k], t[2 * k + 1], &er, &ei);
    cmul(z1r, z1i, t[2 * (n + k)], t[2 * (n + k) + 1], &fr, &fi);
    cmul(c0r, c0i, t[2 * (2 * n + k)], t[2 * (2 * n + k) + 1], &gr, &gi);
    cmul(c1r, c1i, t[2 * (3 * n + k)], t[2 * (3 * n + k) + 1], &hr, &hi);
    if (c0) {
        store(z0, k, er, ei);
        store(z1, k, fr, fi);
        store(c0, k, gr, gi);
        store(c1, k, hr, hi);
    } else {
        store(z0, k, er + fr, ei + fi);
        store(z1, k, gr + hr, gi + hi);
    }
}

/* bin k of a convex row from z0(k) and the flip c0(k) */
INLINE void convex_bin(const double *t, int64_t n, int64_t k, double zr,
                       double zi, double cr, double ci, double *z0,
                       double *z1)
{
    double qr, qi, pr, pi, gr, gi;
    cmul(cr, ci, t[2 * (n + k)], t[2 * (n + k) + 1], &qr, &qi);
    cmul(t[2 * k], t[2 * k + 1], zr, zi, &pr, &pi);
    cmul(zr, zi, t[2 * (2 * n + k)], t[2 * (2 * n + k) + 1], &gr, &gi);
    store(z0, k, qr + pr, qi + pi);
    store(z1, k, gr, gi);
}

/* The pass above over rows rows of n bins (n even), in place; taps is
   (3 or 4, n) complex.  Bins 0 and n/2 are their own mirrors. */
void sln_mix(int64_t convex, int64_t rows, int64_t n, const double *taps,
             double *z, double *c, int64_t half, int64_t row, int64_t chalf,
             int64_t crow)
{
    for (int64_t r = 0; r < rows; r++) {
        double *z0 = z + 2 * r * row, *z1 = z0 + 2 * half;
        double *c0 = c ? c + 2 * r * crow : NULL;
        double *c1 = c ? c0 + 2 * chalf : NULL;
        for (int64_t k = 0; k <= n / 2; k++) {
            const int64_t m = k ? n - k : 0;
            double ar, ai, br, bi;
            load(z0, k, &ar, &ai);
            load(z0, m, &br, &bi);
            if (convex) {
                convex_bin(taps, n, k, ar, ai, br, -bi, z0, z1);
                if (m != k)
                    convex_bin(taps, n, m, br, bi, ar, -ai, z0, z1);
                continue;
            }
            double xr, xi, yr, yi;
            load(z1, k, &xr, &xi);
            load(z1, m, &yr, &yi);
            orthogonal_bin(taps, n, k, ar, ai, xr, xi, br, -bi, yr, -yi,
                           z0, z1, c0, c1);
            if (m != k)
                orthogonal_bin(taps, n, m, br, bi, yr, yi, ar, -ai, xr, -xi,
                               z0, z1, c0, c1);
        }
    }
}

/* ------------------------------------------------------------------
 * sln_sums: the ensemble sums of a unit of realizations, column after
 * column in order, as numpy's in-order adds acc += x form them.
 *
 * The block holds m steps of nq complex quantities of width columns,
 * (m, nq, width); column l * rows + r is column r of point l.  Each
 * column is added into the sums of every quantity, csum (points, steps,
 * nq) complex, and the squared modulus of the last quantity, formed as
 * re*re + im*im, into fsum (points, steps); the sums of a point are
 * steps steps long.
 */
void sln_sums(const double *block, int64_t m, int64_t nq, int64_t width,
              int64_t rows, double *csum, double *fsum, int64_t steps)
{
    for (int64_t l = 0; l < width / rows; l++)
        for (int64_t j = 0; j < m; j++) {
            const double *x = block + 2 * (j * nq * width + l * rows);
            double *c = csum + 2 * (l * steps + j) * nq;
            for (int64_t q = 0; q < nq; q++) {
                const double *xq = x + 2 * q * width;
                double re = c[2 * q], im = c[2 * q + 1];
                for (int64_t r = 0; r < rows; r++) {
                    re += xq[2 * r];
                    im += xq[2 * r + 1];
                }
                c[2 * q] = re;
                c[2 * q + 1] = im;
            }
            const double *xa = x + 2 * (nq - 1) * width;
            double f = fsum[l * steps + j];
            for (int64_t r = 0; r < rows; r++)
                f += xa[2 * r] * xa[2 * r] + xa[2 * r + 1] * xa[2 * r + 1];
            fsum[l * steps + j] = f;
        }
}


/* ------------------------------------------------------------------
 * sln_fft: scipy.fft.fft and scipy.fft.ifft of rows of complex128 whose
 * length n is a power of two, in place.
 *
 * scipy's transforms are pocketfft's (M. Reinecke, pocketfft_hdronly),
 * whose plan for n = 2^m is cfftp: as many radix-8 passes as 8 divides n,
 * then a radix-4 pass, or a radix-2 pass put first, whichever is left.
 * Pass p, with ip the radix, l1 the product of the radices before it and
 * ido = n / (l1 ip), reads CC(i, j, k) = cc[i + ido (j + ip k)] and
 * writes CH(i, k, j) = ch[i + ido (k + l1 j)], for j < ip, i < ido and
 * k < l1: ip inputs per butterfly, the outputs but those of column i = 0
 * twiddled.  The passes go back and forth between the row and a scratch
 * row; a result left in the scratch row is copied back, times 1/n for the
 * inverse, and one left in the row is scaled in place.  Every butterfly
 * here is pocketfft's pass2, pass4 or pass8, operation for operation
 * (its PM, PMINPLACE, ROTX90, ROTX45, ROTX135 and special_mul), on the
 * twiddles that slnoise.noise._fft_twiddles computes as pocketfft does.
 *
 * Its arithmetic does not mix butterflies, so eight run side by side in
 * the lanes of a vector, the real and the imaginary parts in vectors of
 * their own: the eight consecutive values of q = i + ido k of a group
 * have their outputs at ch[q + l1 ido j], contiguous, and their inputs
 * contiguous too where ido >= 8; where ido is 4 they are two runs, and
 * where it is 1 the group's inputs lie in order, one butterfly after
 * another, and are transposed into the lanes.  The lanes of column i = 0
 * are blended back untwiddled.  The vectors are gcc's generic ones,
 * lowered to AVX-512 where the library is compiled for it and to narrower
 * instructions elsewhere, with the same adds, subtracts and multiplies in
 * every lane.  At n = 4096, 16384 and 32768 a row takes 13, 70 and
 * 146 us with AVX-512 in a hot loop (16-19 GFlop/s, counted as
 * 5 n log2 n), and 16, 79 and 166 us of thread-CPU on a chunk buffer,
 * against 27, 134 and 323 us for scipy's SSE2 build of pocketfft.
 *
 * No scalar complex arithmetic is written here on purpose: gcc 12 with
 * -mfma vectorizes the scalar pattern re = a*c - b*d, im = a*d + b*c of a
 * complex multiply into vfmaddsub or vfmsubadd even under
 * -ffp-contract=off, which rounds once where pocketfft rounds twice.
 */

/* the vectors pass through inline functions only, so the ABI that gcc
   warns of for 64-byte vectors without AVX-512 never applies */
#pragma GCC diagnostic ignored "-Wpsabi"
typedef double vd __attribute__((vector_size(64)));
typedef int64_t vi __attribute__((vector_size(64)));
typedef struct { vd r, i; } vc;  /* eight complex numbers */

#define FFT_LANES 8
#define HSQT2 0.707106781186547524400844362104849

INLINE vc cadd(vc a, vc b) { return (vc){a.r + b.r, a.i + b.i}; }
INLINE vc csub(vc a, vc b) { return (vc){a.r - b.r, a.i - b.i}; }

/* times -i forward, times i inverse */
INLINE vc rot90(vc a, int fwd)
{
    return fwd ? (vc){a.i, -a.r} : (vc){-a.i, a.r};
}

INLINE vc rot45(vc a, int fwd)
{
    return fwd ? (vc){HSQT2 * (a.r + a.i), HSQT2 * (a.i - a.r)}
               : (vc){HSQT2 * (a.r - a.i), HSQT2 * (a.i + a.r)};
}

INLINE vc rot135(vc a, int fwd)
{
    return fwd ? (vc){HSQT2 * (a.i - a.r), HSQT2 * (-a.r - a.i)}
               : (vc){HSQT2 * (-a.r - a.i), HSQT2 * (a.r - a.i)};
}

INLINE vd loadv(const double *p)
{
    vd v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* a times conj(w) forward, times w inverse, w the twiddles of table row
   tw (real parts, then imaginary parts w apart) from entry e; the lanes
   of keep stay a */
INLINE vc twiddle(vc a, const double *tw, int64_t w, int64_t e, vi keep,
                  int fwd)
{
    const vd wr = loadv(tw + e), wi = loadv(tw + w + e);
    const vc t = fwd ? (vc){a.r * wr + a.i * wi, a.i * wr - a.r * wi}
                     : (vc){a.r * wr - a.i * wi, a.r * wi + a.i * wr};
    /* a cast between vector types keeps the bits */
    return (vc){(vd)(((vi)a.r & keep) | ((vi)t.r & ~keep)),
                (vd)(((vi)a.i & keep) | ((vi)t.i & ~keep))};
}

/* the butterflies of pocketfft's pass2, pass4 and pass8 on x into y; the
   twiddle of output j is row j-1 of tw (rows 2w apart), none if !tw */
#define TW(j, v) (tw ? twiddle(v, tw + 2 * (j - 1) * w, w, e, keep, fwd) : (v))

INLINE void butterfly2(const vc *x, vc *y, const double *tw, int64_t w,
                       int64_t e, vi keep, int fwd)
{
    y[0] = cadd(x[0], x[1]);
    y[1] = TW(1, csub(x[0], x[1]));
}

INLINE void butterfly4(const vc *x, vc *y, const double *tw, int64_t w,
                       int64_t e, vi keep, int fwd)
{
    const vc t2 = cadd(x[0], x[2]), t1 = csub(x[0], x[2]);
    const vc t3 = cadd(x[1], x[3]), t4 = rot90(csub(x[1], x[3]), fwd);
    y[0] = cadd(t2, t3);
    y[1] = TW(1, cadd(t1, t4));
    y[2] = TW(2, csub(t2, t3));
    y[3] = TW(3, csub(t1, t4));
}

INLINE void butterfly8(const vc *x, vc *y, const double *tw, int64_t w,
                       int64_t e, vi keep, int fwd)
{
    vc a1 = cadd(x[1], x[5]), a5 = csub(x[1], x[5]);
    vc a3 = cadd(x[3], x[7]), a7 = csub(x[3], x[7]);
    vc t = a1;
    a1 = cadd(t, a3);
    a3 = rot90(csub(t, a3), fwd);
    a7 = rot90(a7, fwd);
    t = a5;
    a5 = rot45(cadd(t, a7), fwd);
    a7 = rot135(csub(t, a7), fwd);
    vc a0 = cadd(x[0], x[4]), a4 = csub(x[0], x[4]);
    vc a2 = cadd(x[2], x[6]), a6 = csub(x[2], x[6]);
    t = a0;
    a0 = cadd(t, a2);
    a2 = csub(t, a2);
    y[0] = cadd(a0, a1);
    y[4] = TW(4, csub(a0, a1));
    y[2] = TW(2, cadd(a2, a3));
    y[6] = TW(6, csub(a2, a3));
    a6 = rot90(a6, fwd);
    t = a4;
    a4 = cadd(t, a6);
    a6 = csub(t, a6);
    y[1] = TW(1, cadd(a4, a5));
    y[5] = TW(5, csub(a4, a5));
    y[3] = TW(3, cadd(a6, a7));
    y[7] = TW(7, csub(a6, a7));
}

#undef TW

/* eight complex numbers, interleaved, four at p and four at q, into split
   lanes */
INLINE vc load_split(const double *p, const double *q)
{
    const vd a = loadv(p), b = loadv(q);
    return (vc){__builtin_shuffle(a, b, (vi){0, 2, 4, 6, 8, 10, 12, 14}),
                __builtin_shuffle(a, b, (vi){1, 3, 5, 7, 9, 11, 13, 15})};
}

INLINE void store_split(double *p, vc v)
{
    const vd a = __builtin_shuffle(v.r, v.i, (vi){0, 8, 1, 9, 2, 10, 3, 11});
    const vd b = __builtin_shuffle(v.r, v.i, (vi){4, 12, 5, 13, 6, 14, 7, 15});
    memcpy(p, &a, sizeof a);
    memcpy(p + 8, &b, sizeof b);
}

/* v[j] <- lane j of v[0 .. 7], the transpose of an 8 x 8 matrix */
INLINE void transpose8(vd *v)
{
    vd t[8], s[8];
    for (int k = 0; k < 8; k += 2) {
        t[k] = __builtin_shuffle(v[k], v[k + 1], (vi){0, 8, 2, 10, 4, 12, 6, 14});
        t[k + 1] = __builtin_shuffle(v[k], v[k + 1], (vi){1, 9, 3, 11, 5, 13, 7, 15});
    }
    for (int k = 0; k < 8; k += 4)
        for (int h = 0; h < 2; h++) {
            s[k + h] = __builtin_shuffle(t[k + h], t[k + h + 2],
                                         (vi){0, 1, 8, 9, 4, 5, 12, 13});
            s[k + h + 2] = __builtin_shuffle(t[k + h], t[k + h + 2],
                                             (vi){2, 3, 10, 11, 6, 7, 14, 15});
        }
    for (int h = 0; h < 4; h++) {
        v[h] = __builtin_shuffle(s[h], s[h + 4], (vi){0, 1, 2, 3, 8, 9, 10, 11});
        v[h + 4] = __builtin_shuffle(s[h], s[h + 4], (vi){4, 5, 6, 7, 12, 13, 14, 15});
    }
}

/* v[j] <- lanes j, j+4 of v[0], v[1], v[2], v[3]: columns of the 8 x 4
   matrix whose rows are the halves of v[0 .. 3] */
INLINE void transpose4(vd *v)
{
    const vi even = {0, 4, 8, 12, 1, 5, 9, 13}, odd = {2, 6, 10, 14, 3, 7, 11, 15};
    const vi lo = {0, 1, 2, 3, 8, 9, 10, 11}, hi = {4, 5, 6, 7, 12, 13, 14, 15};
    const vd a = __builtin_shuffle(v[0], v[1], even), b = __builtin_shuffle(v[0], v[1], odd);
    const vd c = __builtin_shuffle(v[2], v[3], even), d = __builtin_shuffle(v[2], v[3], odd);
    v[0] = __builtin_shuffle(a, c, lo);
    v[1] = __builtin_shuffle(a, c, hi);
    v[2] = __builtin_shuffle(b, d, lo);
    v[3] = __builtin_shuffle(b, d, hi);
}

INLINE void butterfly(const int ip, const vc *x, vc *y, const double *tw,
                      int64_t w, int64_t e, vi keep, const int fwd)
{
    if (ip == 8)
        butterfly8(x, y, tw, w, e, keep, fwd);
    else if (ip == 4)
        butterfly4(x, y, tw, w, e, keep, fwd);
    else
        butterfly2(x, y, tw, w, e, keep, fwd);
}

/* One pass of radix ip from cc into ch, eight butterflies at a time.  tw
   holds the pass's twiddles: ip-1 rows of w = max(ido, 8) real parts and
   as many imaginary parts, entry e of a row belonging to column e mod ido,
   so that the rows of ido < 8 repeat their columns across the lanes.
   Where ido >= 8, the lanes are eight consecutive columns i of one k,
   loaded as they lie; else they are the eight consecutive values of
   q = i + ido k from a multiple of 8 (or the l1 ido of them, if fewer,
   taken one by one). */
INLINE void fft_pass(const int ip, int64_t l1, int64_t ido, const double *cc,
                     double *ch, const double *tw, const int fwd)
{
    const int64_t m = l1 * ido;
    vc x[8], y[8];
    if (ido >= FFT_LANES) {
        const vi first = {-1, 0, 0, 0, 0, 0, 0, 0}, none = {0};
        for (int64_t k = 0; k < l1; k++)
            for (int64_t i = 0; i < ido; i += FFT_LANES) {
                for (int j = 0; j < ip; j++) {
                    const double *p = cc + 2 * (i + ido * (j + ip * k));
                    x[j] = load_split(p, p + 8);
                }
                butterfly(ip, x, y, tw, ido, i, i ? none : first, fwd);
                for (int j = 0; j < ip; j++)
                    store_split(ch + 2 * (i + ido * (k + l1 * j)), y[j]);
            }
        return;
    }
    /* the inputs of a group of ido < 8 are its ip q0 .. ip (q0 + 8) - 1 */
    const int lanes = m < FFT_LANES ? (int)m : FFT_LANES;
    const vi keep = ((vi){0, 1, 2, 3, 4, 5, 6, 7} & (ido - 1)) == 0;
    for (int64_t q0 = 0; q0 < m; q0 += FFT_LANES) {
        const double *in = cc + 2 * ip * q0;
        if (lanes == FFT_LANES && ido == 4) {
            /* columns 0 .. 3 of k and of k+1 */
            for (int j = 0; j < ip; j++)
                x[j] = load_split(in + 8 * j, in + 8 * (ip + j));
        } else if (lanes == FFT_LANES && ido == 1 && ip > 2) {
            vd r[8], i[8];
            for (int t = 0; t < ip; t++) {
                const vc v = load_split(in + 16 * t, in + 16 * t + 8);
                r[t] = v.r;
                i[t] = v.i;
            }
            if (ip == 8) {
                transpose8(r);
                transpose8(i);
            } else {
                transpose4(r);
                transpose4(i);
            }
            for (int j = 0; j < ip; j++)
                x[j] = (vc){r[j], i[j]};
        } else {
            for (int j = 0; j < ip; j++) {
                x[j] = (vc){{0}, {0}};
                for (int l = 0; l < lanes; l++) {
                    const int64_t at = (l & (ido - 1)) + ido * j + ip * (l - (l & (ido - 1)));
                    x[j].r[l] = in[2 * at];
                    x[j].i[l] = in[2 * at + 1];
                }
            }
        }
        butterfly(ip, x, y, ido > 1 ? tw : NULL, FFT_LANES, 0, keep, fwd);
        for (int j = 0; j < ip; j++) {
            double *p = ch + 2 * (q0 + m * j);
            if (lanes == FFT_LANES) {
                store_split(p, y[j]);
                continue;
            }
            for (int l = 0; l < lanes; l++) {
                p[2 * l] = y[j].r[l];
                p[2 * l + 1] = y[j].i[l];
            }
        }
    }
}

static void pass(int ip, int64_t l1, int64_t ido, const double *cc,
                 double *ch, const double *tw, int fwd)
{
    if (fwd) {
        if (ip == 8)
            fft_pass(8, l1, ido, cc, ch, tw, 1);
        else if (ip == 4)
            fft_pass(4, l1, ido, cc, ch, tw, 1);
        else
            fft_pass(2, l1, ido, cc, ch, tw, 1);
    } else {
        if (ip == 8)
            fft_pass(8, l1, ido, cc, ch, tw, 0);
        else if (ip == 4)
            fft_pass(4, l1, ido, cc, ch, tw, 0);
        else
            fft_pass(2, l1, ido, cc, ch, tw, 0);
    }
}

/* The transform of rows outer x rows rows of n complex numbers (n a power
   of two, at least 2), row (o, r) at data + 2 (o outer_stride +
   r row_stride), in place: scipy.fft.fft's, or ifft's if inverse.
   twiddles are those of slnoise.noise._fft_twiddles(n), scratch a row of
   n complex numbers. */
void sln_fft(int64_t inverse, int64_t n, const double *twiddles,
             double *scratch, double *data, int64_t outer,
             int64_t outer_stride, int64_t rows, int64_t row_stride)
{
    int radix[64], passes = 0;
    int64_t left = n;
    while ((left & 7) == 0) {
        radix[passes++] = 8;
        left >>= 3;
    }
    while ((left & 3) == 0) {
        radix[passes++] = 4;
        left >>= 2;
    }
    if ((left & 1) == 0) {
        /* the 2 goes first */
        radix[passes] = passes ? radix[0] : 2;
        radix[0] = 2;
        passes++;
    }
    const double fct = inverse ? 1.0 / (double)n : 1.0;
    for (int64_t o = 0; o < outer; o++)
        for (int64_t r = 0; r < rows; r++) {
            double *row = data + 2 * (o * outer_stride + r * row_stride);
            double *p1 = row, *p2 = scratch;
            const double *tw = twiddles;
            int64_t l1 = 1;
            for (int k = 0; k < passes; k++) {
                const int ip = radix[k];
                const int64_t ido = n / (l1 * ip);
                pass(ip, l1, ido, p1, p2, tw, !inverse);
                tw += 2 * (ip - 1) * (ido > FFT_LANES ? ido : FFT_LANES);
                double *t = p1;
                p1 = p2;
                p2 = t;
                l1 *= ip;
            }
            if (p1 != row) {
                if (inverse)
                    for (int64_t x = 0; x < 2 * n; x++)
                        row[x] = p1[x] * fct;
                else
                    memcpy(row, p1, 2 * n * sizeof(double));
            } else if (inverse) {
                for (int64_t x = 0; x < 2 * n; x++)
                    row[x] *= fct;
            }
        }
}
