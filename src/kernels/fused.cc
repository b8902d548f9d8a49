/**
 * @file
 * Fused kernels created by the operator-fusion pass: DwConv+Bias+Act
 * and MatMul+Bias+Act. Fusion removes the intermediate activation
 * buffers and two kernel launches per linear layer (paper Section
 * 3.2, "Operator Fusion"). Both partition the same way as their
 * unfused counterparts: the depthwise form over the flattened (image,
 * channel) pairs, the GEMM form over output rows.
 *
 * Conv+Bias+Act is not here: it is the conv-family GEMM with a
 * bias+act epilogue (conv2d.cc), so it shares Conv2d's "im2col"
 * kernel and every SIMD tier of it. Winograd registers its own
 * ConvBiasAct variant (winograd.cc). The activation math of every
 * epilogue is kutil::actOf.
 */

#include "kernels/kernel.h"
#include "kernels/kernel_util.h"

namespace pe {
namespace {

using kutil::actOf;

void
dwConvBiasActK(const KernelCtx &c)
{
    const Shape &xs = *c.inShapes[0];
    const Shape &ws = *c.inShapes[1];
    int64_t stride = c.node->attrs.getInt("stride", 1);
    int64_t pad = c.node->attrs.getInt("pad", 0);
    int64_t act = c.node->attrs.getInt("act", kActNone);
    int64_t n = xs[0], ch = xs[1], h = xs[2], w = xs[3];
    int64_t kh = ws[2], kw = ws[3];
    int64_t ho = (*c.outShape)[2], wo = (*c.outShape)[3];
    int64_t hi = partitionEnd(c, n * ch);
    for (int64_t idx = c.begin; idx < hi; ++idx) {
        int64_t ni = idx / ch, cc = idx % ch;
        {
            const float *xp = c.in[0] + (ni * ch + cc) * h * w;
            const float *wp = c.in[1] + cc * kh * kw;
            float b = c.in[2][cc];
            float *op = c.out + (ni * ch + cc) * ho * wo;
            for (int64_t i = 0; i < ho; ++i) {
                for (int64_t j = 0; j < wo; ++j) {
                    float acc = b;
                    for (int64_t a = 0; a < kh; ++a) {
                        int64_t ih = i * stride - pad + a;
                        if (ih < 0 || ih >= h)
                            continue;
                        for (int64_t bb = 0; bb < kw; ++bb) {
                            int64_t iw = j * stride - pad + bb;
                            if (iw < 0 || iw >= w)
                                continue;
                            acc += xp[ih * w + iw] * wp[a * kw + bb];
                        }
                    }
                    op[i * wo + j] = actOf(act, acc);
                }
            }
        }
    }
}

void
matmulBiasActK(const KernelCtx &c)
{
    bool ta = c.node->attrs.getInt("transA", 0) != 0;
    bool tb = c.node->attrs.getInt("transB", 0) != 0;
    int64_t act = c.node->attrs.getInt("act", kActNone);
    const Shape &as = *c.inShapes[0];
    const Shape &bs = *c.inShapes[1];
    int64_t m = ta ? as[1] : as[0];
    int64_t k = ta ? as[0] : as[1];
    int64_t n = tb ? bs[0] : bs[1];
    auto a_at = [&](int64_t i, int64_t kk) {
        return ta ? c.in[0][kk * m + i] : c.in[0][i * k + kk];
    };
    auto b_at = [&](int64_t kk, int64_t j) {
        return tb ? c.in[1][j * k + kk] : c.in[1][kk * n + j];
    };
    int64_t hi = partitionEnd(c, m);
    for (int64_t i = c.begin; i < hi; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            float acc = c.in[2][j];
            for (int64_t kk = 0; kk < k; ++kk)
                acc += a_at(i, kk) * b_at(kk, j);
            c.out[i * n + j] = actOf(act, acc);
        }
    }
}

} // namespace

namespace detail {

void
registerFusedKernels()
{
    registerKernel(OpKind::DwConvBiasAct, "", dwConvBiasActK,
                   {part::outDim01, 1});
    registerKernel(OpKind::MatMulBiasAct, "", matmulBiasActK,
                   {part::outDim0, 8});
}

} // namespace detail
} // namespace pe
