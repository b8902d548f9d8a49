/**
 * @file
 * The fused DwConv+Bias+Act kernel created by the operator-fusion
 * pass. Fusion removes the intermediate activation buffers and two
 * kernel launches per layer (paper Section 3.2, "Operator Fusion").
 * It partitions like the unfused depthwise conv, over the flattened
 * (image, channel) pairs.
 *
 * Conv+Bias+Act and MatMul+Bias+Act are not here: they are the one
 * fp32 GEMM with a bias+act epilogue (conv2d.cc, matmul.cc), so they
 * share Conv2d's "im2col" and MatMul's kernels and every SIMD tier of
 * them. Winograd registers its own ConvBiasAct variant (winograd.cc).
 * The activation math of every epilogue is kutil::actOf.
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

} // namespace

namespace detail {

void
registerFusedKernels()
{
    registerKernel(OpKind::DwConvBiasAct, "", dwConvBiasActK,
                   {part::outDim01, 1});
}

} // namespace detail
} // namespace pe
