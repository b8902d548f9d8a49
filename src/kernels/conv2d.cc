/**
 * @file
 * NCHW convolution kernels: the conv-family GEMM drivers and the
 * depthwise kernels.
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

/**
 * Depthwise forward, DwConv2d and DwConvBiasAct alike: each output
 * pixel sums its in-bounds taps in (kh, kw) order starting from the
 * channel's bias (zero without one), then applies the "act" epilogue.
 */
void
dwConvK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &ws = *c.inShapes[1];
    int64_t stride = c.node->attrs.getInt("stride", 1);
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t act = c.node->attrs.getInt("act", kActNone);
    const float *bias =
        c.node->op == OpKind::DwConvBiasAct ? c.in[2] : nullptr;
    int64_t ch = xs[1], h = xs[2], w = xs[3];
    int64_t kh = ws[2], kw = ws[3];
    int64_t ho = (*c.outShape)[2], wo = (*c.outShape)[3];
    int64_t hi = partitionEnd(c, xs[0] * ch);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t ni = idx / ch, ci = idx % ch;
        const float *xp = c.in[0] + (ni * ch + ci) * h * w;
        const float *wp = c.in[1] + ci * kh * kw;
        float *op = c.out + (ni * ch + ci) * ho * wo;
        for (int64_t i = 0; i < ho; ++i) {
            for (int64_t j = 0; j < wo; ++j) {
                float acc = bias ? bias[ci] : 0.0f;
                for (int64_t a = 0; a < kh; ++a) {
                    int64_t ih = i * stride - pad + a;
                    if (ih < 0 || ih >= h)
                        continue;
                    for (int64_t b = 0; b < kw; ++b) {
                        int64_t iw = j * stride - pad + b;
                        if (iw < 0 || iw >= w)
                            continue;
                        acc += xp[ih * w + iw] * wp[a * kw + b];
                    }
                }
                op[i * wo + j] = kutil::actOf(act, acc);
            }
        }
    }
}

void
dwConv2dBwdInput(const KernelCtx &c)
{
    const Shape &ws = *c.inShapes[0];
    const Shape &dys = *c.inShapes[1];
    const Shape &xs = *c.outShape;
    int64_t stride = c.node->attrs.getInt("stride", 1);
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t ch = xs[1], h = xs[2], w = xs[3];
    int64_t kh = ws[2], kw = ws[3];
    int64_t ho = dys[2], wo = dys[3];
    int64_t lo = c.begin, hi = partitionEnd(c, xs[0] * ch);
    std::memset(c.out + lo * h * w, 0, sizeof(float) * (hi - lo) * h * w);
    for (int64_t idx = lo; idx < hi; ++idx) {
        int64_t ni = idx / ch, ci = idx % ch;
        const float *wp = c.in[0] + ci * kh * kw;
        const float *gp = c.in[1] + (ni * ch + ci) * ho * wo;
        float *dp = c.out + (ni * ch + ci) * h * w;
        for (int64_t i = 0; i < ho; ++i) {
            for (int64_t j = 0; j < wo; ++j) {
                float g = gp[i * wo + j];
                if (g == 0.0f)
                    continue;
                for (int64_t a = 0; a < kh; ++a) {
                    int64_t ih = i * stride - pad + a;
                    if (ih < 0 || ih >= h)
                        continue;
                    for (int64_t b = 0; b < kw; ++b) {
                        int64_t iw = j * stride - pad + b;
                        if (iw < 0 || iw >= w)
                            continue;
                        dp[ih * w + iw] += g * wp[a * kw + b];
                    }
                }
            }
        }
    }
}

void
dwConv2dBwdWeight(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &dys = *c.inShapes[1];
    int64_t stride = c.node->attrs.getInt("stride", 1);
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t n = xs[0], ch = xs[1], h = xs[2], w = xs[3];
    const Shape &os = *c.outShape;
    int64_t kh = os[2], kw = os[3];
    int64_t ho = dys[2], wo = dys[3];
    int64_t limit = os[0];
    int64_t lo = c.begin, hi = partitionEnd(c, limit);
    std::memset(c.out + lo * kh * kw, 0,
                sizeof(float) * (hi - lo) * kh * kw);
    // ci outermost so shards own disjoint dw slices; ascending-ni
    // accumulation per element is preserved.
    for (int64_t ci = lo; ci < hi; ++ci) {
        float *dw = c.out + ci * kh * kw;
        for (int64_t ni = 0; ni < n; ++ni) {
            const float *xp = c.in[0] + (ni * ch + ci) * h * w;
            const float *gp = c.in[1] + (ni * ch + ci) * ho * wo;
            for (int64_t i = 0; i < ho; ++i) {
                for (int64_t j = 0; j < wo; ++j) {
                    float g = gp[i * wo + j];
                    if (g == 0.0f)
                        continue;
                    for (int64_t a = 0; a < kh; ++a) {
                        int64_t ih = i * stride - pad + a;
                        if (ih < 0 || ih >= h)
                            continue;
                        for (int64_t b = 0; b < kw; ++b) {
                            int64_t iw = j * stride - pad + b;
                            if (iw < 0 || iw >= w)
                                continue;
                            dw[a * kw + b] += g * xp[ih * w + iw];
                        }
                    }
                }
            }
        }
    }
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

} // namespace kutil

namespace detail {

void
registerConvKernels()
{
    PartitionSpec images{part::outDim01, 1};
    PartitionSpec tiles{kutil::convTiles, 1};
    PartitionSpec dxImages{part::outDim0, 1};
    PartitionSpec dwChannels{part::outDim0, 1};
    for (OpKind op : {OpKind::Conv2d, OpKind::ConvBiasAct})
        registerKernel(op, "", convGemmK, tiles, kutil::convGemmWorkspace);
    registerKernel(OpKind::Conv2dBwdInput, "", convBwdInputK, dxImages,
                   kutil::convGemmWorkspace);
    registerKernel(OpKind::Conv2dBwdWeight, "", convBwdWeightK,
                   dwChannels, kutil::convGemmWorkspace);
    for (OpKind op : {OpKind::DwConv2d, OpKind::DwConvBiasAct})
        registerKernel(op, "", dwConvK, images);
    registerKernel(OpKind::DwConv2dBwdInput, "", dwConv2dBwdInput,
                   images);
    registerKernel(OpKind::DwConv2dBwdWeight, "", dwConv2dBwdWeight,
                   dwChannels);
}

} // namespace detail
} // namespace pe
