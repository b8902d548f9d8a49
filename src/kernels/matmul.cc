/**
 * @file
 * The one fp32 GEMM: MatMul, BatchMatMul and MatMulBiasAct run
 * kutil::Gemm, the microkernel the conv family (conv2d.cc) runs too.
 * The driver here owns operand layout and partitioning; the scalar
 * tier and each SIMD tier (simd_avx2.cc, simd_neon.cc) pass in only
 * their microkernel. Transpose flags never materialize a transposed
 * copy of A — transA is just A's strides — which is how the backward
 * graph reuses the forward MatMul primitive (paper Fig. 3:
 * dW = G * X^T).
 *
 *  - Non-transposed B is read in place, with no workspace.
 *  - transB packs Bᵀ into the shard's workspace one kGemmBlock x
 *    kGemmBlock panel at a time; later k panels accumulate into C.
 *  - MatMulBiasAct starts C from its per-column bias and applies the
 *    activation on the last k panel.
 *
 * Partitioning: MatMul and MatMulBiasAct split over output rows,
 * BatchMatMul over the batch — each shard writes a disjoint slab of
 * the output. Every element's accumulation order is fixed by its
 * position alone (kutil::Gemm), so results are independent of the
 * shard bounds, of transB panelling, and of how many rows share a
 * GEMM: row i of an M-row product equals the 1-row product of row i.
 *
 * The scalar GEMM starts from the bias (or zero) and adds the
 * products one at a time in ascending k, so it equals the naive
 * triple loop value for value.
 */

#include <algorithm>

#include "kernels/kernel.h"
#include "kernels/kernel_util.h"

namespace pe {
namespace kutil {

namespace {

/** Rows [r0, r0 + R) of the scalar GEMM: one pass over each B row
 *  feeds all R output rows, and every element still adds its products
 *  one at a time in ascending k. */
template <int R>
void
scalarRows(const Gemm &g, int64_t r0)
{
    float *crow[R];
    for (int r = 0; r < R; ++r) {
        crow[r] = g.c + (r0 + r) * g.ldc;
        if (g.accumulate)
            continue;
        if (g.bias && g.colBias)
            std::copy(g.bias, g.bias + g.n, crow[r]);
        else
            std::fill(crow[r], crow[r] + g.n,
                      g.bias ? g.bias[r0 + r] : 0.0f);
    }
    const float *arow = g.a + r0 * g.ars;
    for (int64_t kk = 0; kk < g.k; ++kk) {
        float av[R];
        for (int r = 0; r < R; ++r)
            av[r] = arow[r * g.ars + kk * g.acs];
        const float *brow = g.b + kk * g.ldb;
        for (int64_t j = 0; j < g.n; ++j) {
            float bv = brow[j];
            for (int r = 0; r < R; ++r)
                crow[r][j] += av[r] * bv;
        }
    }
    if (g.act != kActNone) {
        for (int r = 0; r < R; ++r)
            for (int64_t j = 0; j < g.n; ++j)
                crow[r][j] = actOf(g.act, crow[r][j]);
    }
}

/** Operands of one (Batch)MatMul[BiasAct] node, per batch entry. */
struct MatMulDims {
    int64_t m, k, n;
    bool ta, tb;
};

MatMulDims
matmulDims(const Shape &as, const Shape &bs, const Attrs &attrs)
{
    size_t r = as.size();
    MatMulDims d;
    d.ta = attrs.getInt("transA", 0) != 0;
    d.tb = attrs.getInt("transB", 0) != 0;
    d.m = d.ta ? as[r - 1] : as[r - 2];
    d.k = d.ta ? as[r - 2] : as[r - 1];
    d.n = d.tb ? bs[r - 2] : bs[r - 1];
    return d;
}

/** Rows [r0, r1) of C = act(bias + op(A) op(B)). */
void
gemmRows(const MatMulDims &d, const float *a, const float *b,
         const float *bias, int64_t act, float *c, int64_t r0,
         int64_t r1, float *panel, GemmFn gemm)
{
    Gemm g;
    g.ars = d.ta ? 1 : d.k;
    g.acs = d.ta ? d.m : 1;
    g.a = a + r0 * g.ars;
    g.c = c + r0 * d.n;
    g.ldc = d.n;
    g.m = r1 - r0;
    g.bias = bias;
    g.colBias = true;
    g.act = act;
    if (!d.tb) {
        g.b = b;
        g.ldb = d.n;
        g.n = d.n;
        g.k = d.k;
        gemm(g);
        return;
    }
    for (int64_t j0 = 0; j0 < d.n; j0 += kGemmBlock) {
        int64_t jn = std::min(kGemmBlock, d.n - j0);
        int64_t k0 = 0;
        do { // once even when k == 0: C still gets bias and act
            int64_t kn = std::min(kGemmBlock, d.k - k0);
            for (int64_t kk = 0; kk < kn; ++kk)
                for (int64_t j = 0; j < jn; ++j)
                    panel[kk * jn + j] = b[(j0 + j) * d.k + k0 + kk];
            Gemm t = g;
            t.a = g.a + k0 * g.acs;
            t.b = panel;
            t.ldb = jn;
            t.c = g.c + j0;
            t.n = jn;
            t.k = kn;
            t.bias = bias ? bias + j0 : nullptr;
            t.accumulate = k0 > 0;
            t.act = k0 + kn == d.k ? act : kActNone;
            gemm(t);
            k0 += kn;
        } while (k0 < d.k);
    }
}

} // namespace

void
gemmScalar(const Gemm &g)
{
    int64_t r0 = 0;
    for (; r0 + 4 <= g.m; r0 += 4)
        scalarRows<4>(g, r0);
    for (; r0 < g.m; ++r0)
        scalarRows<1>(g, r0);
}

void
matmul(const KernelCtx &c, GemmFn gemm)
{
    const Shape &as = *c.inShapes[0];
    const Shape &bs = *c.inShapes[1];
    MatMulDims d = matmulDims(as, bs, c.node->attrs);
    bool fused = c.node->op == OpKind::MatMulBiasAct;
    const float *bias = fused ? c.in[2] : nullptr;
    int64_t act = c.node->attrs.getInt("act", kActNone);
    if (c.node->op != OpKind::BatchMatMul) {
        gemmRows(d, c.in[0], c.in[1], bias, act, c.out, c.begin,
                 partitionEnd(c, d.m), c.workspace, gemm);
        return;
    }
    int64_t a_stride = as[1] * as[2];
    int64_t b_stride = bs[1] * bs[2];
    int64_t o_stride = d.m * d.n;
    for (int64_t i = c.begin; i < partitionEnd(c, as[0]); ++i)
        gemmRows(d, c.in[0] + i * a_stride, c.in[1] + i * b_stride,
                 bias, act, c.out + i * o_stride, 0, d.m, c.workspace,
                 gemm);
}

WorkspaceSpec
matmulWorkspace(const Graph &g, const Node &n)
{
    MatMulDims d = matmulDims(g.node(n.inputs[0]).shape,
                              g.node(n.inputs[1]).shape, n.attrs);
    WorkspaceSpec spec;
    if (d.tb)
        spec.bytesPerShard = kGemmBlock * kGemmBlock * 4;
    return spec;
}

} // namespace kutil

namespace {

void
matmulK(const KernelCtx &c)
{
    kutil::matmul(c, kutil::gemmScalar);
}

} // namespace

namespace detail {

void
registerMatmulKernels()
{
    PartitionSpec rows{part::outDim0, 8};
    PartitionSpec batch{part::outDim0, 1};
    registerKernel(OpKind::MatMul, "", matmulK, rows,
                   kutil::matmulWorkspace);
    registerKernel(OpKind::MatMulBiasAct, "", matmulK, rows,
                   kutil::matmulWorkspace);
    registerKernel(OpKind::BatchMatMul, "", matmulK, batch,
                   kutil::matmulWorkspace);
}

} // namespace detail
} // namespace pe
