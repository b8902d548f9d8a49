/**
 * @file
 * Helpers shared between the scalar kernel TUs and their SIMD tier
 * counterparts (simd_avx2.cc / simd_neon.cc): the int8
 * requantization context, activation math, the im2col unfold, the
 * one fp32 GEMM microkernel interface, and the drivers that run the
 * conv family on it. A SIMD variant must agree with its scalar base
 * on all of this — packing layout, padding values, requantization
 * rounding — for the tier contract (int8 bit-exact, fp32 within
 * tolerance) to hold, so the definitions live in one place.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/shape.h"
#include "ir/graph.h"
#include "ir/infer.h"
#include "kernels/kernel.h"
#include "quant/quant.h"

namespace pe {
namespace kutil {

/** Edge of the packed B-transpose panel of the fp32 GEMM: a
 *  transB GEMM packs at most kGemmBlock x kGemmBlock floats at once. */
constexpr int64_t kGemmBlock = 48;

inline float
attrF(const KernelCtx &c, const char *key, double dflt = 0.0)
{
    return static_cast<float>(c.node->attrs.getFloat(key, dflt));
}

inline int32_t
attrI(const KernelCtx &c, const char *key, int64_t dflt = 0)
{
    return static_cast<int32_t>(c.node->attrs.getInt(key, dflt));
}

inline float
actOf(int64_t act, float v)
{
    switch (act) {
      case kActRelu:
        return v > 0 ? v : 0.0f;
      case kActGelu: {
        constexpr float kC = 0.7978845608028654f;
        return 0.5f * v *
               (1.0f + std::tanh(kC * (v + 0.044715f * v * v * v)));
      }
      case kActSilu:
        return v / (1.0f + std::exp(-v));
      default:
        return v;
    }
}

/** Flattened-index stride/extent of the per-channel axis. */
struct AxisView {
    int64_t inner = 1, channels = 1;

    int64_t
    channelOf(int64_t flat) const
    {
        return (flat / inner) % channels;
    }
};

inline AxisView
axisView(const Shape &s, int64_t axis)
{
    AxisView v;
    v.channels = s[axis];
    for (size_t i = axis + 1; i < s.size(); ++i)
        v.inner *= s[i];
    return v;
}

/** Requantization context shared by the int8 GEMM/conv kernels. */
struct Requant {
    float xScale, wScale, yScale;
    int32_t xZp, yZp;
    const float *wScales = nullptr; ///< per-channel, else null
    const float *bias = nullptr;    ///< fp32, else null
    int64_t act = kActNone;

    int8_t
    emit(int32_t acc, int64_t channel) const
    {
        float sw = wScales ? wScales[channel] : wScale;
        float r = static_cast<float>(acc) * xScale * sw;
        if (bias)
            r += bias[channel];
        r = actOf(act, r);
        return quantizeValue(r, yScale, yZp);
    }
};

inline Requant
requantOf(const KernelCtx &c)
{
    Requant r;
    r.xScale = attrF(c, "xScale", 1.0);
    r.wScale = attrF(c, "wScale", 1.0);
    r.yScale = attrF(c, "yScale", 1.0);
    r.xZp = attrI(c, "xZp", 0);
    r.yZp = attrI(c, "yZp", 0);
    r.act = c.node->attrs.getInt("act", kActNone);
    bool has_bias = c.node->attrs.getInt("hasBias", 0) != 0;
    bool per_channel = c.node->attrs.getInt("perChannel", 0) != 0;
    if (has_bias)
        r.bias = c.in[2];
    if (per_channel && c.in.size() > static_cast<size_t>(2 + has_bias))
        r.wScales = c.in[2 + (has_bias ? 1 : 0)];
    return r;
}

/**
 * Unfold one NCHW image into its [ci*kh*kw, ho*wo] column matrix.
 * Out-of-bounds taps read @p padval (0.0f for fp32; the input
 * zero-point for int8, so (col - zp) vanishes exactly where fp32
 * would pad zeros). Row order is (ci, kh, kw) ascending — the
 * accumulation order every consumer relies on for bit-exactness
 * against the direct kernels.
 */
template <typename T>
inline void
im2colUnfold(const T *xn, T *col, int64_t ci, int64_t h, int64_t w,
             int64_t kh, int64_t kw, int64_t ho, int64_t wo,
             int64_t stride, int64_t pad, T padval)
{
    int64_t cols = ho * wo;
    int64_t r = 0;
    for (int64_t cc = 0; cc < ci; ++cc) {
        for (int64_t a = 0; a < kh; ++a) {
            for (int64_t b = 0; b < kw; ++b, ++r) {
                T *dst = col + r * cols;
                for (int64_t i = 0; i < ho; ++i) {
                    int64_t ih = i * stride - pad + a;
                    for (int64_t j = 0; j < wo; ++j) {
                        int64_t iw = j * stride - pad + b;
                        bool ok = ih >= 0 && ih < h && iw >= 0 &&
                                  iw < w;
                        dst[i * wo + j] =
                            ok ? xn[(cc * h + ih) * w + iw] : padval;
                    }
                }
            }
        }
    }
}

// ---- the one fp32 GEMM ----------------------------------------------
//
// MatMul, BatchMatMul, MatMulBiasAct and the conv family (Conv2d,
// ConvBiasAct, Conv2dBwdInput, Conv2dBwdWeight) all run one
// GEMM with a bias+act epilogue. The drivers below (matmul.cc,
// conv2d.cc) own operand layout, packing, tiling and partitioning;
// each SIMD tier supplies only the GEMM microkernel, so every tier
// shards, tiles and sizes its workspace identically by construction.

/**
 * One GEMM with its epilogue:
 *
 *     C[r, j] = act(init[r, j] + sum_kk A(r, kk) * B[kk, j])
 *
 * for r < m, j < n, kk ascending. A is addressed through a row and a
 * column stride, so a matrix and its transpose are both views. The
 * initial value is C itself when @c accumulate is set, else the bias
 * (bias[r], or bias[j] with @c colBias) or zero. The scalar tier adds
 * the products one at a time in that order; the SIMD tiers fuse each
 * multiply-add. Either way an element's result depends only on its
 * own row of A and column of B, never on m, n or where the tile
 * starts, so splitting a GEMM by rows, columns or k (through
 * @c accumulate) reproduces it bit for bit.
 */
struct Gemm {
    const float *a;
    int64_t ars, acs; ///< A(r, kk) = a[r * ars + kk * acs]
    const float *b;
    int64_t ldb;
    float *c;
    int64_t ldc;
    int64_t m, n, k;
    const float *bias = nullptr;
    bool colBias = false; ///< bias indexed by column, not row
    bool accumulate = false;
    int64_t act = kActNone;
};

using GemmFn = void (*)(const Gemm &);

/** The scalar tier's GEMM: the reference every tier is tested to. */
void gemmScalar(const Gemm &g);

/**
 * MatMul / MatMulBiasAct over output-row shards, BatchMatMul over
 * batch shards. transA is A's strides; B is read in place unless
 * transB, which packs Bᵀ one kGemmBlock² panel at a time into the
 * shard's workspace. MatMulBiasAct starts from its per-column bias
 * and applies "act" on the last k panel.
 */
void matmul(const KernelCtx &c, GemmFn gemm);

/** Per-shard workspace of matmul(): one kGemmBlock² Bᵀ panel for a
 *  transB GEMM, none otherwise. */
WorkspaceSpec matmulWorkspace(const Graph &g, const Node &n);

// ---- the conv family on the GEMM -------------------------------------

/** Output pixels per column tile. Forward shards are (image, column
 *  tile) pairs, and a k x k conv unfolds one tile at a time, so the
 *  per-shard workspace is bounded by ci*kh*kw*kConvTile floats. */
constexpr int64_t kConvTile = 32;

/** Geometry of one NCHW convolution. */
struct ConvGeom {
    int64_t n, ci, h, w;  // input x
    int64_t co, kh, kw;   // weight
    int64_t ho, wo;       // output
    int64_t stride, pad;

    int64_t cols() const { return ho * wo; }
    int64_t k() const { return ci * kh * kw; }
    /** Width of one column tile (the last tile may be narrower). */
    int64_t tile() const { return std::min(cols(), kConvTile); }
    int64_t tiles() const { return (cols() + kConvTile - 1) / kConvTile; }
    /** 1x1, stride 1, pad 0: each input image already IS its
     *  [ci, h*w] column matrix, so the GEMM reads it in place. */
    bool
    pointwise() const
    {
        return kh == 1 && kw == 1 && stride == 1 && pad == 0;
    }
};

inline ConvGeom
convGeomOf(const Shape &x, const Shape &w, const Shape &y,
           const Attrs &attrs)
{
    return {x[0], x[1], x[2], x[3], w[0], w[2], w[3], y[2], y[3],
            attrs.getInt("stride", 1), attrs.getInt("pad", 0)};
}

/** Conv2d / ConvBiasAct over (image, column tile) shards. */
void convForward(const KernelCtx &c, GemmFn gemm);
/** dx_n = col2im(W^T dY_n), sharded over images. */
void convBwdInput(const KernelCtx &c, GemmFn gemm);
/** dW += dY_n col_n^T in ascending n, sharded over the (limitCo)
 *  output channels. */
void convBwdWeight(const KernelCtx &c, GemmFn gemm);

/** Partition extent of convForward: images x column tiles. */
int64_t convTiles(const KernelCtx &c);

/** Per-shard workspace of the three drivers: one unfolded column tile
 *  (ci*kh*kw x tile floats), none where the GEMM reads or writes a
 *  pointwise image in place. */
WorkspaceSpec convGemmWorkspace(const Graph &g, const Node &n);

// ---- shared workspace declarations -----------------------------------
//
// A SIMD tier variant must declare EXACTLY the workspace of its scalar
// base: the memory planner sizes the arena from the variant selected
// at compile time, and the bind-time tier switch (either direction)
// reuses that placement. Sharing the WorkspaceFn bodies makes the
// equality structural.

/** Packed i8 weight panel of the int8 GEMM ([N, K] rows). */
inline WorkspaceSpec
qgemmWorkspace(const Graph &g, const Node &n)
{
    const Shape &b = g.node(n.inputs[1]).shape;
    WorkspaceSpec spec;
    spec.bytesPerShard = numel(b);
    return spec;
}

/** One fp32 attention-score row ([M] = K's row count) per shard: the
 *  QK product, mask add, and softmax all happen in this buffer, so the
 *  five-op subgraph's four arena intermediates become zero. */
inline WorkspaceSpec
fusedAttentionWorkspace(const Graph &g, const Node &n)
{
    const Shape &k = g.node(n.inputs[1]).shape;
    WorkspaceSpec spec;
    spec.bytesPerShard = k[k.size() - 2] * 4;
    return spec;
}

/** Per-image i8 im2col column buffer of the int8 conv. */
inline WorkspaceSpec
qconvColWorkspace(const Graph &g, const Node &n)
{
    const Shape &x = g.node(n.inputs[0]).shape;
    const Shape &w = g.node(n.inputs[1]).shape;
    int64_t ho = convOutDim(x[2], w[2], n.attrs.getInt("stride", 1),
                            n.attrs.getInt("pad", 0));
    int64_t wo = convOutDim(x[3], w[3], n.attrs.getInt("stride", 1),
                            n.attrs.getInt("pad", 0));
    WorkspaceSpec spec;
    spec.bytesPerShard = x[1] * w[2] * w[3] * ho * wo;
    return spec;
}

} // namespace kutil
} // namespace pe
