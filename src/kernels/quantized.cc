/**
 * @file
 * Quantized kernels (int8 storage, int32 accumulation, float
 * requantization) plus the f32<->f16 storage casts.
 *
 * Each quant compute op has one integer kernel: GEMM packs the i8
 * weight panel into a per-shard workspace (contiguous K-major rows);
 * conv uses a per-image i8 im2col column buffer whose padding cells
 * hold the input zero-point, so (col - zp) vanishes exactly where fp32
 * would pad zeros. QuantDwConv2d runs the one depthwise driver
 * (dwconv.h, registered from conv2d.cc). All accumulate in int32 and
 * requantize per output channel. The SIMD tier
 * (simd_avx2.cc / simd_neon.cc) registers bare "avx2"/"neon" variants
 * that are bit-exact to these (integer accumulation has no
 * reassociation hazard; requantization rounds identically).
 *
 * Thread-count invariance: every shard computes its output elements
 * with per-element exact integer accumulation and one final rounding,
 * so numThreads=N is bit-identical to numThreads=1 (asserted by
 * test_quant).
 */

#include <cmath>
#include <cstring>

#include "ir/infer.h"
#include "kernels/kernel.h"
#include "kernels/kernel_util.h"
#include "quant/quant.h"

namespace pe {
namespace {

using kutil::AxisView;
using kutil::attrF;
using kutil::attrI;
using kutil::axisView;

// ---- storage casts ----------------------------------------------------

void
quantizeK(const KernelCtx &c)
{
    int64_t n = numel(*c.outShape);
    int64_t hi = partitionEnd(c, n);
    const float *x = c.in[0];
    if (c.node->attrs.getString("dtype", "i8") == "f16") {
        uint16_t *out = reinterpret_cast<uint16_t *>(c.out);
        for (int64_t i = c.begin; i < hi; ++i)
            out[i] = floatToHalf(x[i]);
        return;
    }
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    if (c.in.size() > 1 && c.node->attrs.has("qaxis")) {
        // Per-channel symmetric (weights): scales from input 1.
        AxisView av =
            axisView(*c.outShape, c.node->attrs.getInt("qaxis"));
        const float *scales = c.in[1];
        for (int64_t i = c.begin; i < hi; ++i)
            out[i] = quantizeValue(x[i], scales[av.channelOf(i)], 0);
        return;
    }
    float s = attrF(c, "yScale", 1.0);
    int32_t zp = attrI(c, "yZp", 0);
    for (int64_t i = c.begin; i < hi; ++i)
        out[i] = quantizeValue(x[i], s, zp);
}

void
dequantizeK(const KernelCtx &c)
{
    int64_t n = numel(*c.outShape);
    int64_t hi = partitionEnd(c, n);
    if (c.node->attrs.getString("dtype", "i8") == "f16") {
        const uint16_t *x = reinterpret_cast<const uint16_t *>(c.in[0]);
        for (int64_t i = c.begin; i < hi; ++i)
            c.out[i] = halfToFloat(x[i]);
        return;
    }
    const int8_t *x = reinterpret_cast<const int8_t *>(c.in[0]);
    if (c.in.size() > 1 && c.node->attrs.has("qaxis")) {
        AxisView av =
            axisView(*c.outShape, c.node->attrs.getInt("qaxis"));
        const float *scales = c.in[1];
        for (int64_t i = c.begin; i < hi; ++i)
            c.out[i] = dequantizeValue(x[i], scales[av.channelOf(i)], 0);
        return;
    }
    float s = attrF(c, "xScale", 1.0);
    int32_t zp = attrI(c, "xZp", 0);
    for (int64_t i = c.begin; i < hi; ++i)
        c.out[i] = dequantizeValue(x[i], s, zp);
}

void
requantizeK(const KernelCtx &c)
{
    int64_t n = numel(*c.outShape);
    int64_t hi = partitionEnd(c, n);
    const int8_t *x = reinterpret_cast<const int8_t *>(c.in[0]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    float xs = attrF(c, "xScale", 1.0), ys = attrF(c, "yScale", 1.0);
    int32_t xzp = attrI(c, "xZp", 0), yzp = attrI(c, "yZp", 0);
    for (int64_t i = c.begin; i < hi; ++i)
        out[i] = quantizeValue(dequantizeValue(x[i], xs, xzp), ys, yzp);
}

// ---- int8 elementwise -------------------------------------------------

void
qaddK(const KernelCtx &c)
{
    int64_t n = numel(*c.outShape);
    int64_t hi = partitionEnd(c, n);
    const int8_t *a = reinterpret_cast<const int8_t *>(c.in[0]);
    const int8_t *b = reinterpret_cast<const int8_t *>(c.in[1]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    float as = attrF(c, "xScale", 1.0), bs = attrF(c, "bScale", 1.0);
    float ys = attrF(c, "yScale", 1.0);
    int32_t azp = attrI(c, "xZp", 0), bzp = attrI(c, "bZp", 0);
    int32_t yzp = attrI(c, "yZp", 0);
    for (int64_t i = c.begin; i < hi; ++i) {
        float v = dequantizeValue(a[i], as, azp) +
                  dequantizeValue(b[i], bs, bzp);
        out[i] = quantizeValue(v, ys, yzp);
    }
}

void
qreluK(const KernelCtx &c)
{
    int64_t n = numel(*c.outShape);
    int64_t hi = partitionEnd(c, n);
    const int8_t *x = reinterpret_cast<const int8_t *>(c.in[0]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    float xs = attrF(c, "xScale", 1.0), ys = attrF(c, "yScale", 1.0);
    int32_t xzp = attrI(c, "xZp", 0), yzp = attrI(c, "yZp", 0);
    for (int64_t i = c.begin; i < hi; ++i) {
        float v = dequantizeValue(x[i], xs, xzp);
        out[i] = quantizeValue(v > 0 ? v : 0.0f, ys, yzp);
    }
}

// ---- int8 GEMM --------------------------------------------------------

/** Requantization context shared by GEMM and conv (kernel_util.h —
 *  the SIMD tier must round identically). */
using kutil::Requant;
using kutil::requantOf;

/**
 * out[M,N] i8 = requant( sum_k (a[m,k]-xZp) * w[.,.] ). The weight
 * panel is packed K-contiguous per output column into the shard's
 * workspace, so the inner loop streams two contiguous i8 vectors.
 */
void
qmatmulK(const KernelCtx &c)
{
    const Shape &as = *c.inShapes[0];
    const Shape &bs = *c.inShapes[1];
    bool tb = c.node->attrs.getInt("transB", 0) != 0;
    int64_t m_hi = partitionEnd(c, (*c.outShape)[0]);
    int64_t k = as[1];
    int64_t n = (*c.outShape)[1];
    const int8_t *a = reinterpret_cast<const int8_t *>(c.in[0]);
    const int8_t *b = reinterpret_cast<const int8_t *>(c.in[1]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    Requant rq = requantOf(c);

    // Pack W into [N, K] rows (a value-copy; accumulation order is
    // untouched, so packing cannot perturb results).
    int8_t *wp = reinterpret_cast<int8_t *>(c.workspace);
    for (int64_t j = 0; j < n; ++j) {
        for (int64_t kk = 0; kk < k; ++kk)
            wp[j * k + kk] = tb ? b[j * k + kk] : b[kk * n + j];
    }
    (void)bs;

    for (int64_t i = c.begin; i < m_hi; ++i) {
        const int8_t *arow = a + i * k;
        for (int64_t j = 0; j < n; ++j) {
            const int8_t *wrow = wp + j * k;
            int32_t acc = 0;
            for (int64_t kk = 0; kk < k; ++kk) {
                acc += (static_cast<int32_t>(arow[kk]) - rq.xZp) *
                       static_cast<int32_t>(wrow[kk]);
            }
            out[i * n + j] = rq.emit(acc, j);
        }
    }
}

/** Packed i8 panel (kernel_util.h — shared with the SIMD tier). */
constexpr auto qmatmulWorkspace = kutil::qgemmWorkspace;

// ---- int8 conv (im2col) ----------------------------------------------

void
qconvK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &ws = *c.inShapes[1];
    int64_t stride = c.node->attrs.getInt("stride", 1);
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t nI = xs[0], ci = xs[1], h = xs[2], w = xs[3];
    int64_t co = ws[0], kh = ws[2], kw = ws[3];
    int64_t ho = (*c.outShape)[2], wo = (*c.outShape)[3];
    const int8_t *x = reinterpret_cast<const int8_t *>(c.in[0]);
    const int8_t *wt = reinterpret_cast<const int8_t *>(c.in[1]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    Requant rq = requantOf(c);

    int64_t k = ci * kh * kw;
    int64_t cols = ho * wo;
    int8_t *col = reinterpret_cast<int8_t *>(c.workspace);
    int8_t zp8 = static_cast<int8_t>(
        std::min<int32_t>(127, std::max<int32_t>(-128, rq.xZp)));

    for (int64_t ni = c.begin; ni < partitionEnd(c, nI); ++ni) {
        const int8_t *xn = x + ni * ci * h * w;
        // Unfold; padding cells hold the zero-point so (col - zp) is
        // exactly zero there, matching fp32 zero padding.
        kutil::im2colUnfold(xn, col, ci, h, w, kh, kw, ho, wo, stride,
                            pad, zp8);
        // GEMM: out[co, cols] = (col - zp) . w[co, k], int32 accum.
        int8_t *on = out + ni * co * cols;
        for (int64_t o = 0; o < co; ++o) {
            const int8_t *wrow = wt + o * k;
            int8_t *dst = on + o * cols;
            for (int64_t cc2 = 0; cc2 < cols; ++cc2) {
                int32_t acc = 0;
                for (int64_t kk = 0; kk < k; ++kk) {
                    acc += (static_cast<int32_t>(col[kk * cols + cc2]) -
                            rq.xZp) *
                           static_cast<int32_t>(wrow[kk]);
                }
                dst[cc2] = rq.emit(acc, o);
            }
        }
    }
}

/** Per-image i8 column buffer (kernel_util.h — shared with the SIMD
 *  tier). */
constexpr auto qconvWorkspace = kutil::qconvColWorkspace;

int64_t
qmatmulRows(const KernelCtx &c)
{
    return (*c.outShape)[0];
}

} // namespace

namespace detail {

void
registerQuantizedKernels()
{
    PartitionSpec elems{part::outElems, 1024};
    PartitionSpec rows{qmatmulRows, 8};
    PartitionSpec images{part::outDim0, 1};

    registerKernel(OpKind::Quantize, "", quantizeK, elems);
    registerKernel(OpKind::Dequantize, "", dequantizeK, elems);
    registerKernel(OpKind::Requantize, "", requantizeK, elems);

    registerKernel(OpKind::QuantAdd, "", qaddK, elems);
    registerKernel(OpKind::QuantRelu, "", qreluK, elems);
    registerKernel(OpKind::QuantMatMul, "", qmatmulK, rows,
                   qmatmulWorkspace);
    registerKernel(OpKind::QuantConv2d, "", qconvK, images,
                   qconvWorkspace);
}

} // namespace detail
} // namespace pe
