/**
 * @file
 * NCHW convolution kernels: the conv-family GEMM drivers, and the
 * depthwise driver's geometry, tiling, registration and scalar lanes
 * (the traversal itself is in dwconv.h).
 *
 * Conv2d, ConvBiasAct, Conv2dBwdInput and Conv2dBwdWeight all run
 * the one fp32 GEMM with a bias+act epilogue (kutil::Gemm,
 * matmul.cc). The drivers here own unfolding, tiling and
 * partitioning; the scalar tier and each SIMD tier (simd_avx2.cc,
 * simd_neon.cc) pass in only their GEMM microkernel.
 *
 *  - Forward: shards are (image, column tile) pairs. A pointwise conv
 *    (1x1, stride 1, pad 0) reads its input image in place as the
 *    [ci, h*w] column matrix; a k x k conv unfolds one kConvTile-wide
 *    tile at a time into the shard's workspace.
 *  - Input backward: Wᵀ dY_n per image tile, scattered back by col2im
 *    (a pointwise GEMM writes dx in place). Shards are images.
 *  - Weight backward: dW += dY_n colᵀ_n over images and tiles in
 *    ascending order, honoring "limitCo" so sub-layer (channel-sparse)
 *    backpropagation computes only the first k output channels (paper
 *    Section 2.6). Shards are output channels.
 *
 * The scalar GEMM adds products one at a time in (ci, kh, kw) order
 * starting from the bias (or zero), and padded taps add exact zeros,
 * so forward and weight-backward results equal the direct loops value
 * for value.
 * The input backward sums a pixel's taps after the channel reduction,
 * so k x k results differ from the direct loop by rounding only.
 */

#include <algorithm>
#include <cstring>

#include "kernels/dwconv.h"
#include "kernels/kernel.h"
#include "kernels/kernel_util.h"

namespace pe {
namespace {

using kutil::ConvGeom;

void
convGemmK(const KernelCtx &c)
{
    kutil::convForward(c, kutil::gemmScalar);
}

void
convBwdInputK(const KernelCtx &c)
{
    kutil::convBwdInput(c, kutil::gemmScalar);
}

void
convBwdWeightK(const KernelCtx &c)
{
    kutil::convBwdWeight(c, kutil::gemmScalar);
}

using kutil::kDwLanes;

/** The scalar depthwise lanes: one plain loop per lane, the product
 *  and the sum each rounded, as in the scalar loops they replaced. */
template <class E>
struct ScalarLanes {
    using T = E;
    struct V {
        E v[kDwLanes];
    };

    static V
    load(const E *p)
    {
        V r;
        for (int64_t l = 0; l < kDwLanes; ++l)
            r.v[l] = p[l];
        return r;
    }

    static void
    store(E *p, const V &a)
    {
        for (int64_t l = 0; l < kDwLanes; ++l)
            p[l] = a.v[l];
    }

    static V
    fma(V acc, const V &a, const V &b)
    {
        for (int64_t l = 0; l < kDwLanes; ++l)
            acc.v[l] += a.v[l] * b.v[l];
        return acc;
    }

    static V
    madd(const V &acc, const V &a, const V &b)
    {
        return fma(acc, a, b);
    }

    static void
    transpose(const E *s, int64_t ss, E *d, int64_t ds)
    {
        for (int64_t i = 0; i < kDwLanes; ++i)
            for (int64_t j = 0; j < kDwLanes; ++j)
                d[j * ds + i] = s[i * ss + j];
    }
};

struct ScalarI32Lanes : ScalarLanes<int32_t> {
    static void
    emit(const int32_t *acc, int64_t n, int64_t chan, const kutil::Requant &rq,
         int8_t *out)
    {
        for (int64_t p = 0; p < n; ++p)
            out[p] = rq.emit(acc[p], chan);
    }
};

void
dwConvK(const KernelCtx &c)
{
    kutil::dwConv<ScalarLanes<float>, ScalarI32Lanes>(c);
}

} // namespace

namespace kutil {

namespace {

/**
 * Visit output pixels [j0, j0 + jn) as runs within one output row:
 * f(t, i, j, run) covers tile columns [t, t + run), i.e. pixels
 * (i, j) .. (i, j + run - 1).
 */
template <typename F>
void
forEachRowRun(const ConvGeom &d, int64_t j0, int64_t jn, F f)
{
    int64_t i = j0 / d.wo, j = j0 % d.wo;
    for (int64_t t = 0; t < jn; j = 0, ++i) {
        int64_t run = std::min(d.wo - j, jn - t);
        f(t, i, j, run);
        t += run;
    }
}

/** Unfold output pixels [j0, j0 + jn) of one image into a [k, jn]
 *  column tile, rows in (ci, kh, kw) order; padded taps read 0. */
void
im2colTile(const float *xn, float *col, const ConvGeom &d, int64_t j0,
           int64_t jn)
{
    int64_t r = 0;
    for (int64_t cc = 0; cc < d.ci; ++cc) {
        for (int64_t a = 0; a < d.kh; ++a) {
            for (int64_t b = 0; b < d.kw; ++b, ++r) {
                float *dst = col + r * jn;
                forEachRowRun(d, j0, jn, [&](int64_t t, int64_t i,
                                             int64_t j, int64_t run) {
                    int64_t ih = i * d.stride - d.pad + a;
                    if (ih < 0 || ih >= d.h) {
                        std::fill(dst + t, dst + t + run, 0.0f);
                        return;
                    }
                    const float *xrow = xn + (cc * d.h + ih) * d.w;
                    for (int64_t u = 0; u < run; ++u) {
                        int64_t iw = (j + u) * d.stride - d.pad + b;
                        dst[t + u] = iw >= 0 && iw < d.w ? xrow[iw] : 0.0f;
                    }
                });
            }
        }
    }
}

/** The same tile transposed: [jn, k], one unfolded patch per row. */
void
im2colTileT(const float *xn, float *colT, const ConvGeom &d, int64_t j0,
            int64_t jn)
{
    int64_t k = d.k();
    forEachRowRun(d, j0, jn, [&](int64_t t, int64_t i, int64_t j,
                                 int64_t run) {
        for (int64_t u = 0; u < run; ++u) {
            float *dst = colT + (t + u) * k;
            for (int64_t cc = 0; cc < d.ci; ++cc) {
                for (int64_t a = 0; a < d.kh; ++a) {
                    int64_t ih = i * d.stride - d.pad + a;
                    for (int64_t b = 0; b < d.kw; ++b) {
                        int64_t iw = (j + u) * d.stride - d.pad + b;
                        bool ok =
                            ih >= 0 && ih < d.h && iw >= 0 && iw < d.w;
                        *dst++ = ok ? xn[(cc * d.h + ih) * d.w + iw] : 0.0f;
                    }
                }
            }
        }
    });
}

/** Scatter-add a [k, jn] column tile back onto its image (col2im). */
void
col2imTileAdd(const float *col, float *dxn, const ConvGeom &d,
              int64_t j0, int64_t jn)
{
    int64_t r = 0;
    for (int64_t cc = 0; cc < d.ci; ++cc) {
        for (int64_t a = 0; a < d.kh; ++a) {
            for (int64_t b = 0; b < d.kw; ++b, ++r) {
                const float *src = col + r * jn;
                forEachRowRun(d, j0, jn, [&](int64_t t, int64_t i,
                                             int64_t j, int64_t run) {
                    int64_t ih = i * d.stride - d.pad + a;
                    if (ih < 0 || ih >= d.h)
                        return;
                    float *dxrow = dxn + (cc * d.h + ih) * d.w;
                    for (int64_t u = 0; u < run; ++u) {
                        int64_t iw = (j + u) * d.stride - d.pad + b;
                        if (iw >= 0 && iw < d.w)
                            dxrow[iw] += src[t + u];
                    }
                });
            }
        }
    }
}

/** Geometry from a graph node, per op (workspace sizing). */
ConvGeom
nodeGeom(const Graph &g, const Node &n)
{
    const Shape &in0 = g.node(n.inputs[0]).shape;
    const Shape &in1 = g.node(n.inputs[1]).shape;
    switch (n.op) {
      case OpKind::Conv2dBwdInput: // W, dY -> dx
        return convGeomOf(n.shape, in0, in1, n.attrs);
      case OpKind::Conv2dBwdWeight: // x, dY -> dW
        return convGeomOf(in0, n.attrs.getInts("wshape"), in1, n.attrs);
      default: // x, W (, bias) -> y
        return convGeomOf(in0, in1, n.shape, n.attrs);
    }
}

} // namespace

int64_t
convTiles(const KernelCtx &c)
{
    const Shape &y = *c.outShape;
    return y[0] * ((y[2] * y[3] + kConvTile - 1) / kConvTile);
}

void
convForward(const KernelCtx &c, GemmFn gemm)
{
    ConvGeom d = convGeomOf(*c.inShapes[0], *c.inShapes[1], *c.outShape,
                            c.node->attrs);
    int64_t k = d.k(), cols = d.cols(), tiles = d.tiles();
    Gemm g;
    g.a = c.in[1]; // W [co, k]
    g.ars = k;
    g.acs = 1;
    g.ldc = cols;
    g.m = d.co;
    g.k = k;
    g.bias = c.node->op == OpKind::ConvBiasAct ? c.in[2] : nullptr;
    g.act = c.node->attrs.getInt("act", kActNone);
    int64_t hi = partitionEnd(c, d.n * tiles);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t n = idx / tiles, j0 = (idx % tiles) * kConvTile;
        const float *xn = c.in[0] + n * d.ci * d.h * d.w;
        g.n = std::min(kConvTile, cols - j0);
        g.c = c.out + n * d.co * cols + j0;
        if (d.pointwise()) {
            g.b = xn + j0;
            g.ldb = cols;
        } else {
            im2colTile(xn, c.workspace, d, j0, g.n);
            g.b = c.workspace;
            g.ldb = g.n;
        }
        gemm(g);
    }
}

void
convBwdInput(const KernelCtx &c, GemmFn gemm)
{
    ConvGeom d = convGeomOf(*c.outShape, *c.inShapes[0], *c.inShapes[1],
                            c.node->attrs);
    int64_t k = d.k(), cols = d.cols(), image = d.ci * d.h * d.w;
    int64_t lo = c.begin, hi = partitionEnd(c, d.n);
    Gemm g;
    g.a = c.in[0]; // W^T: A(r, co) = W[co, r]
    g.ars = 1;
    g.acs = k;
    g.m = k;
    g.k = d.co;
    if (!d.pointwise())
        std::memset(c.out + lo * image, 0,
                    sizeof(float) * (hi - lo) * image);
    for (int64_t n = lo; n < hi; ++n) {
        const float *dyn = c.in[1] + n * d.co * cols;
        float *dxn = c.out + n * image;
        g.ldb = cols;
        for (int64_t j0 = 0; j0 < cols; j0 += kConvTile) {
            g.n = std::min(kConvTile, cols - j0);
            g.b = dyn + j0;
            if (d.pointwise()) {
                g.c = dxn + j0;
                g.ldc = cols;
                gemm(g);
            } else {
                g.c = c.workspace;
                g.ldc = g.n;
                gemm(g);
                col2imTileAdd(c.workspace, dxn, d, j0, g.n);
            }
        }
    }
}

void
convBwdWeight(const KernelCtx &c, GemmFn gemm)
{
    ConvGeom d = convGeomOf(*c.inShapes[0],
                            c.node->attrs.getInts("wshape"),
                            *c.inShapes[1], c.node->attrs);
    int64_t limit = (*c.outShape)[0]; // <= co under "limitCo"
    int64_t k = d.k(), cols = d.cols();
    int64_t lo = c.begin, hi = partitionEnd(c, limit);
    if (hi <= lo)
        return;
    std::memset(c.out + lo * k, 0, sizeof(float) * (hi - lo) * k);
    // Rows [lo, hi) of dW += dY_n[lo:hi, tile] x colT_tile, images and
    // tiles ascending: every dW entry sums its (n, pixel) terms in the
    // same order whatever the shard bounds.
    Gemm g;
    g.ars = cols;
    g.acs = 1;
    g.b = c.workspace;
    g.ldb = k;
    g.c = c.out + lo * k;
    g.ldc = k;
    g.m = hi - lo;
    g.n = k;
    g.accumulate = true;
    for (int64_t n = 0; n < d.n; ++n) {
        const float *xn = c.in[0] + n * d.ci * d.h * d.w;
        for (int64_t j0 = 0; j0 < cols; j0 += kConvTile) {
            g.k = std::min(kConvTile, cols - j0);
            im2colTileT(xn, c.workspace, d, j0, g.k);
            g.a = c.in[1] + (n * d.co + lo) * cols + j0;
            gemm(g);
        }
    }
}

WorkspaceSpec
convGemmWorkspace(const Graph &g, const Node &n)
{
    ConvGeom d = nodeGeom(g, n);
    // The weight gradient always transposes its tile; the other two
    // read or write a pointwise image in place.
    bool inPlace = d.pointwise() && n.op != OpKind::Conv2dBwdWeight;
    WorkspaceSpec spec;
    spec.bytesPerShard = inPlace ? 0 : d.k() * d.tile() * 4;
    return spec;
}

// ---- the depthwise driver's geometry (dwconv.h) -------------------------

namespace {

/** Extent of the source window that @p t consecutive computed
 *  coordinates read along one axis, wherever they start. */
int64_t
dwWindow(const DwGeom &g, int64_t t, int64_t k, int64_t src)
{
    if (g.op == OpKind::DwConv2dBwdInput)
        return std::min(src, (t + k - 2) / g.stride + 1);
    return std::min(src, (t - 1) * g.stride + k);
}

/** Scratch of a rows x cols tile for @p group images, region by
 *  region in the order the driver takes them (each rounded to 64
 *  bytes). */
int64_t
dwScratchBytes(const DwGeom &g, int64_t rows, int64_t cols, int64_t group)
{
    auto region = [](int64_t b) { return (b + 63) / 64 * 64; };
    const int64_t pix = kDwLanes * 4, span = sizeof(DwSpan);
    bool bwdInput = g.op == OpKind::DwConv2dBwdInput;
    int64_t win = dwWindow(g, rows, g.kh, bwdInput ? g.ho : g.h) *
                  dwWindow(g, cols, g.kw, bwdInput ? g.wo : g.w) * pix;
    int64_t bytes = region(g.tapRows() * g.tapCols() * pix) +
                    region(rows * span) + region(cols * span) +
                    region(group * win);
    // The weight backward also holds its dy tile.
    if (g.op == OpKind::DwConv2dBwdWeight)
        bytes += region(rows * cols * pix);
    return bytes;
}

/** Largest t in [1, hi] with fits(t), or 0. */
template <class Fits>
int64_t
largestFitting(int64_t hi, Fits fits)
{
    int64_t lo = 0;
    while (lo < hi) {
        int64_t mid = (lo + hi + 1) / 2;
        if (fits(mid))
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

/** First tap [a0, a1) bound of the taps any output reaches. */
void
dwTapRange(int64_t k, int64_t in, int64_t out, int64_t s, int64_t pad,
           int64_t &t0, int64_t &t1)
{
    t0 = std::clamp<int64_t>(pad - (out - 1) * s, 0, k);
    t1 = std::clamp<int64_t>(in + pad, t0, k);
}

/** Source window [lo, hi) of computed coordinates [o0, o1). */
void
dwAxisWindow(const DwGeom &g, int64_t o0, int64_t o1, int64_t k,
             int64_t src, int64_t &lo, int64_t &hi)
{
    const int64_t s = g.stride, p = g.pad;
    if (g.op == OpKind::DwConv2dBwdInput) {
        // dy index i reaches dx index q through tap q + p - i*s.
        int64_t first = o0 + p - k + 1;
        lo = std::clamp<int64_t>(first <= 0 ? 0 : (first + s - 1) / s, 0,
                                 src);
        hi = std::clamp<int64_t>((o1 - 1 + p) / s + 1, lo, src);
    } else {
        lo = std::clamp<int64_t>(o0 * s - p, 0, src);
        hi = std::clamp<int64_t>((o1 - 1) * s - p + k, lo, src);
    }
}

/**
 * Spans of computed coordinates [o0, o1) along one axis of extent
 * @p in (x) and @p out (y), source window from @p w0, taps from @p t0.
 */
void
dwAxisSpans(const DwGeom &g, int64_t o0, int64_t o1, int64_t k,
            int64_t in, int64_t out, int64_t w0, int64_t t0, DwSpan *sp)
{
    const int64_t s = g.stride, p = g.pad;
    for (int64_t o = o0; o < o1; ++o) {
        int64_t src, n, tap;
        if (g.op == OpKind::DwConv2dBwdInput) {
            // dx index o gathers dy i in [lo, hi), first tap o+p-lo*s.
            int64_t first = o + p - k + 1;
            int64_t lo = first <= 0 ? 0 : (first + s - 1) / s;
            int64_t hi = std::min(out, (o + p) / s + 1);
            n = hi - lo;
            src = lo;
            tap = o + p - lo * s;
        } else {
            int64_t lo = std::max<int64_t>(0, p - o * s);
            int64_t hi = std::min(k, in + p - o * s);
            n = hi - lo;
            src = o * s - p + lo;
            tap = lo;
        }
        sp[o - o0] = n > 0 ? DwSpan{src - w0, n, tap - t0}
                           : DwSpan{0, 0, 0};
    }
}

int64_t
dwBlockImages(const KernelCtx &c)
{
    const Shape &y = *c.outShape; // y or dx: [n, ch, ., .]
    return y[0] * ((y[1] + kDwLanes - 1) / kDwLanes);
}

int64_t
dwBlocks(const KernelCtx &c)
{
    return ((*c.outShape)[0] + kDwLanes - 1) / kDwLanes; // dW rows
}

} // namespace

DwGeom
dwGeomOf(const KernelCtx &c)
{
    DwGeom g{};
    g.op = c.node->op;
    g.stride = c.node->attrs.getInt("stride", 1);
    g.pad = c.node->attrs.getInt("pad", 0);
    const Shape *x, *y;
    switch (g.op) {
      case OpKind::DwConv2dBwdInput: // w, dy -> dx
        x = c.outShape;
        y = c.inShapes[1];
        g.kh = (*c.inShapes[0])[2];
        g.kw = (*c.inShapes[0])[3];
        break;
      case OpKind::DwConv2dBwdWeight: // x, dy -> dW
        x = c.inShapes[0];
        y = c.inShapes[1];
        g.kh = (*c.outShape)[2];
        g.kw = (*c.outShape)[3];
        break;
      default: // x, w (, ...) -> y
        x = c.inShapes[0];
        y = c.outShape;
        g.kh = (*c.inShapes[1])[2];
        g.kw = (*c.inShapes[1])[3];
        break;
    }
    g.n = (*x)[0];
    g.ch = (*x)[1];
    g.h = (*x)[2];
    g.w = (*x)[3];
    g.ho = (*y)[2];
    g.wo = (*y)[3];
    g.channels =
        g.op == OpKind::DwConv2dBwdWeight ? (*c.outShape)[0] : g.ch;
    dwTapRange(g.kh, g.h, g.ho, g.stride, g.pad, g.a0, g.a1);
    dwTapRange(g.kw, g.w, g.wo, g.stride, g.pad, g.b0, g.b1);
    bool bwdInput = g.op == OpKind::DwConv2dBwdInput;
    g.rows = bwdInput ? g.h : g.ho;
    g.cols = bwdInput ? g.w : g.wo;

    // Up to kDwLanes images of the whole plane if they fit the stack
    // tile (forward and input backward), else one image in bands of
    // full rows, else in single-row bands of columns. A weight-backward
    // tile then still visits dy in (i, j) order.
    auto fits = [&](int64_t rows, int64_t cols, int64_t group) {
        return dwScratchBytes(g, rows, cols, group) <= kDwTileBytes;
    };
    g.bandRows = g.rows;
    g.bandCols = g.cols;
    g.group = 1;
    if (g.op != OpKind::DwConv2dBwdWeight)
        g.group = std::max<int64_t>(
            1, largestFitting(std::min(g.n, kDwLanes), [&](int64_t k) {
                return fits(g.rows, g.cols, k);
            }));
    if (!fits(g.rows, g.cols, g.group)) {
        g.bandRows = largestFitting(
            g.rows, [&](int64_t r) { return fits(r, g.cols, 1); });
        if (g.bandRows == 0) {
            g.bandRows = 1;
            g.bandCols = std::max<int64_t>(
                1, largestFitting(g.cols, [&](int64_t q) {
                    return fits(1, q, 1);
                }));
        }
    }
    g.winPix = dwWindow(g, g.bandRows, g.kh, bwdInput ? g.ho : g.h) *
               dwWindow(g, g.bandCols, g.kw, bwdInput ? g.wo : g.w);
    g.tileBytes = dwScratchBytes(g, g.bandRows, g.bandCols, g.group);
    return g;
}

DwTile
dwTileAt(const DwGeom &g, int64_t r0, int64_t c0)
{
    DwTile t;
    t.r0 = r0;
    t.c0 = c0;
    t.r1 = std::min(g.rows, r0 + g.bandRows);
    t.c1 = std::min(g.cols, c0 + g.bandCols);
    bool bwdInput = g.op == OpKind::DwConv2dBwdInput;
    dwAxisWindow(g, t.r0, t.r1, g.kh, bwdInput ? g.ho : g.h, t.sr0, t.sr1);
    dwAxisWindow(g, t.c0, t.c1, g.kw, bwdInput ? g.wo : g.w, t.sc0, t.sc1);
    return t;
}

void
dwSpans(const DwGeom &g, const DwTile &t, DwSpan *rows, DwSpan *cols)
{
    dwAxisSpans(g, t.r0, t.r1, g.kh, g.h, g.ho, t.sr0, g.a0, rows);
    dwAxisSpans(g, t.c0, t.c1, g.kw, g.w, g.wo, t.sc0, g.b0, cols);
}

void
registerDwConvKernels(const std::string &tier, KernelFn fn)
{
    PartitionSpec pairs{dwBlockImages, 1};
    for (OpKind op : {OpKind::DwConv2d, OpKind::DwConvBiasAct,
                      OpKind::DwConv2dBwdInput, OpKind::QuantDwConv2d})
        registerKernel(op, tier, fn, pairs);
    registerKernel(OpKind::DwConv2dBwdWeight, tier, fn,
                   PartitionSpec{dwBlocks, 1});
}

} // namespace kutil

namespace detail {

void
registerConvKernels()
{
    PartitionSpec tiles{kutil::convTiles, 1};
    PartitionSpec dxImages{part::outDim0, 1};
    PartitionSpec dwChannels{part::outDim0, 1};
    for (OpKind op : {OpKind::Conv2d, OpKind::ConvBiasAct})
        registerKernel(op, "", convGemmK, tiles, kutil::convGemmWorkspace);
    registerKernel(OpKind::Conv2dBwdInput, "", convBwdInputK, dxImages,
                   kutil::convGemmWorkspace);
    registerKernel(OpKind::Conv2dBwdWeight, "", convBwdWeightK,
                   dwChannels, kutil::convGemmWorkspace);
    kutil::registerDwConvKernels("", dwConvK);
}

} // namespace detail
} // namespace pe
