/**
 * @file
 * SIMD kernel tier tests.
 *
 *  1. Tier API: variant naming, capability resolution, the unknown-
 *     variant passthrough the fallback counters depend on.
 *  2. Parity properties, swept over random shapes (non-multiple-of-
 *     vector-width tails, 1-element edges): int8 SIMD kernels are
 *     BIT-EXACT to the scalar int8 kernels; fp32 SIMD kernels match
 *     scalar within 1e-5 relative (FMA rounding contract); the scalar
 *     GEMM, conv family and depthwise kernels equal the loops they
 *     replaced, and every GEMM tier computes each row independently
 *     of the others.
 *  3. Compile integration: an MCUNet-style int8 compile reports zero
 *     fallbacks and binds SIMD steps on a SIMD host; an unfused fp32
 *     MCUNet binds no scalar conv; forceScalarTier pins everything to
 *     scalar.
 *  4. Deployment: a plan saved with SIMD variants loads on a host
 *     whose tier is forced to scalar (setSimdTierForTesting), binds
 *     the scalar bases, and reproduces the scalar compile bit for
 *     bit.
 *
 * All tier-dependent cases skip on hosts with no SIMD tier (the
 * PE_SIMD=OFF CI leg runs only the API and scalar-path cases, which
 * is itself the downgrade coverage).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "hw/cpu_features.h"
#include "kernels/dwconv.h"
#include "kernels/kernel.h"
#include "kernels/kernel_util.h"
#include "plan/plan.h"
#include "quant/quant.h"
#include "testutil.h"

namespace pe {
namespace {

using test::Feeds;

/** This host's tier variant ("avx2"/"neon"); "" on a scalar-only
 *  host. */
std::string
hostTier()
{
    detail::ensureKernelsRegistered();
    SimdTier t = hostSimdTier();
    return t == SimdTier::Scalar ? "" : simdTierName(t);
}

#define SKIP_WITHOUT_SIMD()                                             \
    do {                                                                \
        if (hostTier().empty())                                         \
            GTEST_SKIP() << "no SIMD tier on this host";                \
    } while (0)

/** Evaluate a single node with an explicit kernel variant. */
Tensor
runKernel(const Graph &g, int node, const std::vector<Tensor> &inputs,
          const std::string &variant)
{
    const Node &n = g.node(node);
    Tensor out(n.shape);
    KernelCtx ctx;
    ctx.node = &n;
    for (size_t i = 0; i < inputs.size(); ++i) {
        ctx.in.push_back(inputs[i].data());
        ctx.inShapes.push_back(&g.node(n.inputs[i]).shape);
    }
    ctx.out = out.data();
    ctx.outShape = &n.shape;
    DirectWorkspace ws;
    ws.attach(ctx, g, n, variant);
    lookupKernel(n.op, variant)(ctx);
    return out;
}

/** Byte buffer usable as a KernelCtx float* while holding i8 codes. */
struct I8Buf {
    std::vector<float> storage;
    explicit I8Buf(int64_t n)
        : storage(static_cast<size_t>((n + 3) / 4 + 1), 0.0f)
    {
    }
    int8_t *data() { return reinterpret_cast<int8_t *>(storage.data()); }
    const float *asF32() const { return storage.data(); }
    float *asF32Mut() { return storage.data(); }
};

void
quantizeInto(const Tensor &t, float scale, int32_t zp, I8Buf &out)
{
    for (int64_t i = 0; i < t.size(); ++i)
        out.data()[i] = quantizeValue(t[i], scale, zp);
}

std::vector<float>
quantizeWeight(const Tensor &w, int64_t axis, I8Buf &out)
{
    const Shape &s = w.shape();
    int64_t inner = 1;
    for (size_t i = axis + 1; i < s.size(); ++i)
        inner *= s[i];
    std::vector<float> maxabs(static_cast<size_t>(s[axis]), 0.0f);
    for (int64_t i = 0; i < w.size(); ++i) {
        int64_t c = (i / inner) % s[axis];
        maxabs[c] = std::max(maxabs[c], std::fabs(w[i]));
    }
    std::vector<float> scales(maxabs.size());
    for (size_t c = 0; c < scales.size(); ++c)
        scales[c] = chooseWeightScale(maxabs[c]);
    for (int64_t i = 0; i < w.size(); ++i) {
        int64_t c = (i / inner) % s[axis];
        out.data()[i] = quantizeValue(w[i], scales[c], 0);
    }
    return scales;
}

int
maxCodeDiff(const I8Buf &a, const I8Buf &b, int64_t n)
{
    int worst = 0;
    const int8_t *pa = reinterpret_cast<const int8_t *>(a.asF32());
    const int8_t *pb = reinterpret_cast<const int8_t *>(b.asF32());
    for (int64_t i = 0; i < n; ++i)
        worst = std::max(worst, std::abs(static_cast<int>(pa[i]) -
                                         static_cast<int>(pb[i])));
    return worst;
}

float
maxRelDiff(const Tensor &a, const Tensor &b)
{
    float worst = 0.0f;
    for (int64_t i = 0; i < a.size(); ++i) {
        float denom =
            std::max({std::fabs(a[i]), std::fabs(b[i]), 1.0f});
        worst = std::max(worst, std::fabs(a[i] - b[i]) / denom);
    }
    return worst;
}

/** Scoped hostSimdTier() override; always restores on scope exit. */
struct TierOverride {
    explicit TierOverride(SimdTier t)
    {
        setSimdTierForTesting(static_cast<int>(t));
    }
    ~TierOverride() { setSimdTierForTesting(-1); }
};

// ---- 1. tier API -----------------------------------------------------

TEST(TierApi, VariantNamingAndClassification)
{
    detail::ensureKernelsRegistered();
    EXPECT_STREQ(simdTierName(SimdTier::Scalar), "scalar");
    EXPECT_STREQ(simdTierName(SimdTier::Avx2), "avx2");
    EXPECT_STREQ(simdTierName(SimdTier::Neon), "neon");

    // Only the bare tier names are tiers; "" and algorithm variants
    // are scalar kernels.
    EXPECT_EQ(variantTier(""), SimdTier::Scalar);
    EXPECT_EQ(variantTier("winograd"), SimdTier::Scalar);
    EXPECT_EQ(variantTier("avx2"), SimdTier::Avx2);
    EXPECT_EQ(variantTier("neon"), SimdTier::Neon);
    // Unknown variants are NOT tiers: they classify scalar and pass
    // through resolution unchanged, so the fallback counters still
    // see them (test_parallel asserts on exactly that). Retired
    // "<base>@<tier>" names are unknown here: only the plan loader
    // maps them (test_plan).
    EXPECT_EQ(variantTier("no-such-backend"), SimdTier::Scalar);
    EXPECT_EQ(variantTier("im2col@avx2"), SimdTier::Scalar);

    EXPECT_EQ(scalarVariantOf("avx2"), "");
    EXPECT_EQ(scalarVariantOf("neon"), "");
    EXPECT_EQ(scalarVariantOf("winograd"), "winograd");
    EXPECT_EQ(scalarVariantOf(""), "");
}

TEST(TierApi, ResolutionUpgradesOnlyRegisteredVariants)
{
    detail::ensureKernelsRegistered();
    // Scalar tier always lands on the scalar kernel, whatever was
    // asked.
    for (OpKind op : {OpKind::Conv2d, OpKind::MatMul, OpKind::QuantConv2d})
        for (const char *v : {"", "avx2", "neon"})
            EXPECT_EQ(resolveTierVariant(op, v, SimdTier::Scalar), "")
                << opName(op) << " '" << v << "'";
    // A plain unknown string survives untouched.
    EXPECT_EQ(resolveTierVariant(OpKind::MatMul, "no-such-backend",
                                 SimdTier::Scalar),
              "no-such-backend");

    SimdTier host = hostSimdTier();
    if (host == SimdTier::Scalar)
        return;
    // Every op with a tier kernel upgrades "" to the bare tier name.
    for (OpKind op :
         {OpKind::MatMul, OpKind::BatchMatMul, OpKind::MatMulBiasAct,
          OpKind::Conv2d, OpKind::ConvBiasAct, OpKind::QuantMatMul,
          OpKind::QuantConv2d, OpKind::QuantDwConv2d})
        EXPECT_EQ(resolveTierVariant(op, "", host), simdTierName(host))
            << opName(op);
    // Ops with no tier kernel stay on their scalar variant — there is
    // no tier form of "winograd", and Relu has only its default.
    EXPECT_EQ(resolveTierVariant(OpKind::Conv2d, "winograd", host),
              "winograd");
    EXPECT_EQ(resolveTierVariant(OpKind::Relu, "", host), "");
}

TEST(TierApi, CapabilityGatedRegistration)
{
    detail::ensureKernelsRegistered();
    // A tier variant is registered ONLY when this host can execute
    // it, so hasKernelVariant doubles as the capability probe: at
    // most one of the avx2/neon families may exist, and it must match
    // the probed features.
    const CpuFeatures &f = cpuFeatures();
    bool has_avx2 = hasKernelVariant(OpKind::MatMul, "avx2");
    bool has_neon = hasKernelVariant(OpKind::MatMul, "neon");
    EXPECT_FALSE(has_avx2 && has_neon);
    // hostSimdTier() folds in the PE_SIMD=OFF build switch (PE_NO_SIMD
    // is a library-private define, invisible to this TU), so it is the
    // oracle: registration must track it exactly...
    SimdTier host = hostSimdTier();
    EXPECT_EQ(has_avx2, host == SimdTier::Avx2);
    EXPECT_EQ(has_neon, host == SimdTier::Neon);
    // ...and when a tier IS live, it must match the raw probe.
    if (host != SimdTier::Scalar) {
        EXPECT_EQ(has_avx2, f.avx2);
        EXPECT_EQ(has_neon, f.neon);
    }
    if (has_avx2 || has_neon) {
        std::string tier = hostTier();
        for (OpKind op :
             {OpKind::QuantMatMul, OpKind::QuantConv2d,
              OpKind::QuantDwConv2d, OpKind::Conv2d, OpKind::ConvBiasAct,
              OpKind::BatchMatMul, OpKind::MatMulBiasAct})
            EXPECT_TRUE(hasKernelVariant(op, tier)) << opName(op);
    }
    if (has_avx2) {
        for (OpKind op : {OpKind::DwConv2d, OpKind::DwConvBiasAct})
            EXPECT_TRUE(hasKernelVariant(op, "avx2")) << opName(op);
    }
    // No kernel is registered under a retired "<base>@<tier>" name.
    for (const char *v : {"im2col", "im2col@avx2", "int8", "int8@avx2",
                          "int8@neon", "blocked@avx2"})
        for (OpKind op : {OpKind::Conv2d, OpKind::QuantConv2d,
                          OpKind::QuantAdd, OpKind::MatMul})
            EXPECT_FALSE(hasKernelVariant(op, v))
                << opName(op) << "/" << v;
}

// ---- 2. parity properties --------------------------------------------

const int64_t kActs[] = {kActNone, kActRelu, kActGelu, kActSilu};

/** Bitwise equality of two same-shaped tensors. */
bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

// ---- 2a. the one fp32 GEMM -------------------------------------------
//
// MatMul, BatchMatMul and MatMulBiasAct run one GEMM. The reference
// below is the pair of loops it replaced, kept verbatim in summation
// order: MatMul's naive triple loop (acc from 0) and MatMulBiasAct's
// fused loop (acc from bias[j], then the activation). The scalar GEMM
// must reproduce both value for value; every tier stays within 1e-5
// relative of the scalar GEMM.

Tensor
naiveGemm(const Tensor &a, const Tensor &b, const float *bias,
          int64_t act, int64_t m, int64_t k, int64_t n, bool ta, bool tb)
{
    Tensor out({m, n});
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            float acc = bias ? bias[j] : 0.0f;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += (ta ? a[kk * m + i] : a[i * k + kk]) *
                       (tb ? b[j * k + kk] : b[kk * n + j]);
            out[i * n + j] = bias ? kutil::actOf(act, acc) : acc;
        }
    }
    return out;
}

/** One [m,k] x [k,n] product (either operand optionally stored
 *  transposed) as a MatMul, one MatMulBiasAct per activation, and a
 *  2-batch BatchMatMul, with random operands. */
struct GemmGraph {
    Graph g;
    int mm, batched;
    std::vector<int> fused; ///< MatMulBiasAct per kActs entry
    Tensor a, b, bias, a2, b2;

    GemmGraph(int64_t m, int64_t k, int64_t n, bool ta, bool tb, Rng &rng)
    {
        Shape as = ta ? Shape{k, m} : Shape{m, k};
        Shape bs = tb ? Shape{n, k} : Shape{k, n};
        Attrs at;
        at.set("transA", static_cast<int64_t>(ta));
        at.set("transB", static_cast<int64_t>(tb));
        int ia = g.input(as, "a");
        int ib = g.input(bs, "b");
        int ibias = g.input({n}, "bias");
        mm = g.add(OpKind::MatMul, {ia, ib}, at);
        for (int64_t act : kActs) {
            Attrs af = at;
            af.set("act", act);
            fused.push_back(
                g.add(OpKind::MatMulBiasAct, {ia, ib, ibias}, af));
        }
        int ia2 = g.input({2, as[0], as[1]}, "a2");
        int ib2 = g.input({2, bs[0], bs[1]}, "b2");
        batched = g.add(OpKind::BatchMatMul, {ia2, ib2}, at);
        a = Tensor::randn(as, rng);
        b = Tensor::randn(bs, rng);
        bias = Tensor::randn({n}, rng);
        a2 = Tensor::randn(g.node(ia2).shape, rng);
        b2 = Tensor::randn(g.node(ib2).shape, rng);
    }

    Tensor
    run(int node, const std::string &variant) const
    {
        if (node == batched)
            return runKernel(g, node, {a2, b2}, variant);
        if (node == mm)
            return runKernel(g, node, {a, b}, variant);
        return runKernel(g, node, {a, b, bias}, variant);
    }
};

TEST(Gemm, ScalarEqualsNaiveLoops)
{
    Rng rng(106);
    for (int64_t m : {1, 2, 5, 6, 7, 13}) {
        for (int64_t n : {1, 8, 15, 17, 33, 96}) {
            // k = 50 and 100 span two and three transB k panels.
            for (int64_t k : {1, 50, 100}) {
                for (bool ta : {false, true}) {
                    for (bool tb : {false, true}) {
                        SCOPED_TRACE(
                            "m" + std::to_string(m) + " k" +
                            std::to_string(k) + " n" + std::to_string(n) +
                            " ta" + std::to_string(ta) + " tb" +
                            std::to_string(tb));
                        GemmGraph gg(m, k, n, ta, tb, rng);
                        EXPECT_TRUE(sameBits(
                            gg.run(gg.mm, ""),
                            naiveGemm(gg.a, gg.b, nullptr, kActNone, m, k,
                                      n, ta, tb)));
                        for (size_t i = 0; i < gg.fused.size(); ++i)
                            EXPECT_TRUE(sameBits(
                                gg.run(gg.fused[i], ""),
                                naiveGemm(gg.a, gg.b, gg.bias.data(),
                                          kActs[i], m, k, n, ta, tb)))
                                << "act " << kActs[i];
                    }
                }
            }
        }
    }
}

TEST(Gemm, RowsMatchOneRowProductsAtEveryTier)
{
    // A shared decode run multiplies M stream rows in one GEMM where
    // serial decode runs M 1-row GEMMs: per tier, row i of the M-row
    // product must be bit-identical to the 1-row product of row i.
    std::vector<std::string> tiers = {""};
    if (!hostTier().empty())
        tiers.push_back(hostTier());
    Rng rng(107);
    const int64_t m = 13, k = 50, n = 96;
    for (const std::string &tier : tiers) {
        for (bool ta : {false, true}) {
            for (bool tb : {false, true}) {
                SCOPED_TRACE("tier '" + tier + "' ta" +
                             std::to_string(ta) + " tb" +
                             std::to_string(tb));
                GemmGraph all(m, k, n, ta, tb, rng);
                GemmGraph one(1, k, n, ta, tb, rng);
                one.b = all.b;
                one.bias = all.bias;
                std::vector<std::pair<int, int>> nodes = {
                    {all.mm, one.mm}};
                for (size_t i = 0; i < all.fused.size(); ++i)
                    nodes.emplace_back(all.fused[i], one.fused[i]);
                for (auto [na, no] : nodes) {
                    Tensor full = all.run(na, tier);
                    for (int64_t i = 0; i < m; ++i) {
                        for (int64_t kk = 0; kk < k; ++kk)
                            one.a[kk] =
                                ta ? all.a[kk * m + i] : all.a[i * k + kk];
                        Tensor row = one.run(no, tier);
                        EXPECT_EQ(std::memcmp(full.data() + i * n,
                                              row.data(),
                                              sizeof(float) * n),
                                  0)
                            << opName(all.g.node(na).op) << " row " << i;
                    }
                }
            }
        }
    }
}

TEST(SimdParity, Fp32GemmWithin1e5Relative)
{
    SKIP_WITHOUT_SIMD();
    std::string tier = hostTier();
    Rng rng(101);
    // Shapes chosen to hit register-tile and vector-width tails: the
    // 6-row x 16-col and GEMV microkernel tiles, 1-element edges, and
    // sizes straddling the 48-wide transB panel in n and k.
    struct S {
        int64_t m, k, n;
    };
    std::vector<S> shapes = {{1, 1, 1},   {8, 8, 8},    {7, 13, 9},
                             {16, 48, 48}, {17, 49, 50}, {3, 100, 1},
                             {1, 5, 31},  {23, 7, 65},  {2, 100, 96}};
    for (auto [m, k, n] : shapes) {
        SCOPED_TRACE("gemm " + std::to_string(m) + "x" +
                     std::to_string(k) + "x" + std::to_string(n));
        for (bool ta : {false, true}) {
            for (bool tb : {false, true}) {
                GemmGraph gg(m, k, n, ta, tb, rng);
                std::vector<int> nodes = gg.fused;
                nodes.push_back(gg.mm);
                nodes.push_back(gg.batched);
                for (int node : nodes)
                    EXPECT_LT(maxRelDiff(gg.run(node, ""),
                                         gg.run(node, tier)),
                              1e-5f)
                        << opName(gg.g.node(node).op) << " ta " << ta
                        << " tb " << tb;
            }
        }
    }
}

TEST(SimdParity, Fp32Im2colConvWithin1e5Relative)
{
    SKIP_WITHOUT_SIMD();
    std::string tier = hostTier();
    Rng rng(102);
    struct S {
        int64_t ci, co, hw, k, stride, pad;
    };
    std::vector<S> shapes = {{1, 1, 1, 1, 1, 0}, {3, 8, 9, 3, 1, 1},
                             {4, 5, 7, 3, 2, 1}, {2, 16, 13, 5, 1, 2},
                             {8, 3, 8, 1, 1, 0}};
    for (auto [ci, co, hw, k, stride, pad] : shapes) {
        SCOPED_TRACE("conv ci" + std::to_string(ci) + " co" +
                     std::to_string(co) + " hw" + std::to_string(hw));
        Graph g;
        int x = g.input({2, ci, hw, hw}, "x");
        int w = g.param({co, ci, k, k}, "w", false);
        Attrs a;
        a.set("stride", stride);
        a.set("pad", pad);
        int conv = g.add(OpKind::Conv2d, {x, w}, std::move(a));
        Tensor tx = Tensor::randn({2, ci, hw, hw}, rng);
        Tensor tw = Tensor::randn({co, ci, k, k}, rng, 0.3f);
        Tensor scalar = runKernel(g, conv, {tx, tw}, "");
        Tensor simd = runKernel(g, conv, {tx, tw}, tier);
        EXPECT_LT(maxRelDiff(scalar, simd), 1e-5f);
    }
}

// ---- 2b. the fp32 conv family as one GEMM ----------------------------
//
// Conv2d, ConvBiasAct and both conv backward ops run one GEMM
// with a bias+act epilogue. The references below are the direct loops
// those kernels replaced, kept here verbatim in summation order: the
// scalar GEMM must reproduce them value for value wherever it sums in
// the same order (forward, weight backward, pointwise input backward),
// and every tier must stay within 1e-5 relative of the scalar GEMM.

struct ConvCase {
    int64_t n, ci, co, hw, k, stride, pad;

    std::string
    name() const
    {
        return "n" + std::to_string(n) + " ci" + std::to_string(ci) +
               " co" + std::to_string(co) + " hw" + std::to_string(hw) +
               " k" + std::to_string(k) + " s" + std::to_string(stride) +
               " p" + std::to_string(pad);
    }
    int64_t out() const { return (hw + 2 * pad - k) / stride + 1; }
};

/** Pointwise in place, k x k over several column tiles with narrow
 *  last tiles, stride 1 and 2, pad 0 and k/2; output-pixel counts
 *  (81, 16, 169, 36, 121, 16, 64, 1) are mostly not multiples of 8,
 *  and channel counts straddle the 6-row register tile. */
const std::vector<ConvCase> kConvCases = {
    {2, 3, 8, 9, 3, 1, 1},   {1, 4, 5, 7, 3, 2, 1},
    {2, 2, 13, 13, 5, 1, 2}, {2, 8, 7, 6, 1, 1, 0},
    {1, 16, 19, 11, 1, 1, 0}, {2, 5, 6, 8, 1, 2, 0},
    {1, 3, 4, 10, 3, 1, 0},  {1, 1, 1, 1, 1, 1, 0},
};

Attrs
convAttrs(const ConvCase &cs)
{
    Attrs a;
    a.set("stride", cs.stride);
    a.set("pad", cs.pad);
    return a;
}

/** The replaced direct fused kernel: bias, then (ci, kh, kw) taps,
 *  padded taps skipped, then the activation. */
Tensor
directConvBiasAct(const ConvCase &cs, const Tensor &x, const Tensor &w,
                  const float *bias, int64_t act)
{
    int64_t o = cs.out();
    Tensor y({cs.n, cs.co, o, o});
    for (int64_t n = 0; n < cs.n; ++n)
        for (int64_t co = 0; co < cs.co; ++co)
            for (int64_t i = 0; i < o; ++i)
                for (int64_t j = 0; j < o; ++j) {
                    float acc = bias ? bias[co] : 0.0f;
                    for (int64_t ci = 0; ci < cs.ci; ++ci)
                        for (int64_t a = 0; a < cs.k; ++a) {
                            int64_t ih = i * cs.stride - cs.pad + a;
                            if (ih < 0 || ih >= cs.hw)
                                continue;
                            for (int64_t b = 0; b < cs.k; ++b) {
                                int64_t iw = j * cs.stride - cs.pad + b;
                                if (iw < 0 || iw >= cs.hw)
                                    continue;
                                acc += x[((n * cs.ci + ci) * cs.hw + ih) *
                                             cs.hw + iw] *
                                       w[((co * cs.ci + ci) * cs.k + a) *
                                             cs.k + b];
                            }
                        }
                    y[((n * cs.co + co) * o + i) * o + j] =
                        kutil::actOf(act, acc);
                }
    return y;
}

/** The replaced direct weight backward: per dW entry, (n, ho, wo)
 *  ascending; only the first @p limit output channels. */
Tensor
directConvBwdWeight(const ConvCase &cs, const Tensor &x, const Tensor &dy,
                    int64_t limit)
{
    int64_t o = cs.out();
    Tensor dw = Tensor::zeros({limit, cs.ci, cs.k, cs.k});
    for (int64_t co = 0; co < limit; ++co)
        for (int64_t n = 0; n < cs.n; ++n)
            for (int64_t i = 0; i < o; ++i)
                for (int64_t j = 0; j < o; ++j) {
                    float g = dy[((n * cs.co + co) * o + i) * o + j];
                    for (int64_t ci = 0; ci < cs.ci; ++ci)
                        for (int64_t a = 0; a < cs.k; ++a) {
                            int64_t ih = i * cs.stride - cs.pad + a;
                            if (ih < 0 || ih >= cs.hw)
                                continue;
                            for (int64_t b = 0; b < cs.k; ++b) {
                                int64_t iw = j * cs.stride - cs.pad + b;
                                if (iw < 0 || iw >= cs.hw)
                                    continue;
                                dw[((co * cs.ci + ci) * cs.k + a) * cs.k +
                                   b] +=
                                    g * x[((n * cs.ci + ci) * cs.hw + ih) *
                                              cs.hw + iw];
                            }
                        }
                }
    return dw;
}

/** The replaced direct input backward: per dx entry, (co, ho, wo)
 *  ascending. */
Tensor
directConvBwdInput(const ConvCase &cs, const Tensor &w, const Tensor &dy)
{
    int64_t o = cs.out();
    Tensor dx = Tensor::zeros({cs.n, cs.ci, cs.hw, cs.hw});
    for (int64_t n = 0; n < cs.n; ++n)
        for (int64_t co = 0; co < cs.co; ++co)
            for (int64_t i = 0; i < o; ++i)
                for (int64_t j = 0; j < o; ++j) {
                    float g = dy[((n * cs.co + co) * o + i) * o + j];
                    for (int64_t a = 0; a < cs.k; ++a) {
                        int64_t ih = i * cs.stride - cs.pad + a;
                        if (ih < 0 || ih >= cs.hw)
                            continue;
                        for (int64_t b = 0; b < cs.k; ++b) {
                            int64_t iw = j * cs.stride - cs.pad + b;
                            if (iw < 0 || iw >= cs.hw)
                                continue;
                            for (int64_t ci = 0; ci < cs.ci; ++ci)
                                dx[((n * cs.ci + ci) * cs.hw + ih) *
                                       cs.hw + iw] +=
                                    g * w[((co * cs.ci + ci) * cs.k + a) *
                                              cs.k + b];
                        }
                    }
                }
    return dx;
}

/** Elements whose bits differ. */
int64_t
bitMismatches(const Tensor &a, const Tensor &b)
{
    int64_t bad = 0;
    for (int64_t i = 0; i < a.size(); ++i)
        bad += std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0;
    return bad;
}

/** Elements that differ in value (-0 == +0). */
int64_t
valueMismatches(const Tensor &a, const Tensor &b)
{
    int64_t bad = 0;
    for (int64_t i = 0; i < a.size(); ++i)
        bad += !(a[i] == b[i]);
    return bad;
}

/** One conv-family node per case, with its random operands. */
struct ConvGraph {
    Graph g;
    int x, w, b, dy;
    Tensor tx, tw, tb, tdy;

    explicit ConvGraph(const ConvCase &cs, uint64_t seed = 104)
    {
        Rng rng(seed);
        int64_t o = cs.out();
        x = g.input({cs.n, cs.ci, cs.hw, cs.hw}, "x");
        w = g.param({cs.co, cs.ci, cs.k, cs.k}, "w", true);
        b = g.param({cs.co, 1, 1}, "b", true);
        dy = g.input({cs.n, cs.co, o, o}, "dy");
        tx = Tensor::randn(g.node(x).shape, rng);
        tw = Tensor::randn(g.node(w).shape, rng, 0.3f);
        tb = Tensor::randn(g.node(b).shape, rng);
        tdy = Tensor::randn(g.node(dy).shape, rng);
    }

    int
    forward(const ConvCase &cs, int64_t act)
    {
        Attrs a = convAttrs(cs);
        a.set("act", act);
        return g.add(OpKind::ConvBiasAct, {x, w, b}, std::move(a));
    }

    int
    bwdWeight(const ConvCase &cs, int64_t limit)
    {
        Attrs a = convAttrs(cs);
        a.set("wshape", g.node(w).shape);
        if (limit < cs.co)
            a.set("limitCo", limit);
        return g.add(OpKind::Conv2dBwdWeight, {x, dy}, std::move(a));
    }

    int
    bwdInput(const ConvCase &cs)
    {
        Attrs a = convAttrs(cs);
        a.set("xshape", g.node(x).shape);
        return g.add(OpKind::Conv2dBwdInput, {w, dy}, std::move(a));
    }
};

TEST(ConvGemm, ScalarForwardEqualsDirectLoops)
{
    for (const ConvCase &cs : kConvCases) {
        SCOPED_TRACE(cs.name());
        ConvGraph cg(cs);
        for (int64_t act : kActs) {
            SCOPED_TRACE("act " + std::to_string(act));
            int node = cg.forward(cs, act);
            Tensor want =
                directConvBiasAct(cs, cg.tx, cg.tw, cg.tb.data(), act);
            EXPECT_EQ(valueMismatches(
                          runKernel(cg.g, node, {cg.tx, cg.tw, cg.tb}, ""),
                          want),
                      0);
        }
        // A bare Conv2d (no bias, no activation) runs the same GEMM at
        // every size — the cases include 1-, 16- and 81-pixel outputs,
        // which once ran a separate direct loop — and reproduces that
        // loop (directConvBiasAct without a bias) bit for bit.
        int conv = cg.g.add(OpKind::Conv2d, {cg.x, cg.w}, convAttrs(cs));
        EXPECT_EQ(bitMismatches(
                      runKernel(cg.g, conv, {cg.tx, cg.tw}, ""),
                      directConvBiasAct(cs, cg.tx, cg.tw, nullptr,
                                        kActNone)),
                  0);
    }
}

TEST(ConvGemm, ScalarBwdWeightEqualsDirectLoop)
{
    for (const ConvCase &cs : kConvCases) {
        SCOPED_TRACE(cs.name());
        ConvGraph cg(cs);
        for (int64_t limit : {cs.co, (cs.co + 1) / 2}) {
            SCOPED_TRACE("limitCo " + std::to_string(limit));
            int node = cg.bwdWeight(cs, limit);
            EXPECT_EQ(valueMismatches(
                          runKernel(cg.g, node, {cg.tx, cg.tdy}, ""),
                          directConvBwdWeight(cs, cg.tx, cg.tdy, limit)),
                      0);
        }
    }
}

TEST(ConvGemm, ScalarBwdInputMatchesDirectLoop)
{
    for (const ConvCase &cs : kConvCases) {
        SCOPED_TRACE(cs.name());
        ConvGraph cg(cs);
        int node = cg.bwdInput(cs);
        Tensor got = runKernel(cg.g, node, {cg.tw, cg.tdy}, "");
        Tensor want = directConvBwdInput(cs, cg.tw, cg.tdy);
        // A pointwise dx sums its channels in the direct loop's order.
        // A k x k dx sums each tap's channel reduction, then the taps
        // (col2im), which reorders the direct loop's sum.
        if (cs.k == 1 && cs.stride == 1 && cs.pad == 0)
            EXPECT_EQ(valueMismatches(got, want), 0);
        else
            EXPECT_LT(maxRelDiff(got, want), 1e-5f);
    }
}

TEST(SimdParity, Fp32ConvFamilyWithin1e5Relative)
{
    SKIP_WITHOUT_SIMD();
    std::string tier = hostTier();
    for (const ConvCase &cs : kConvCases) {
        SCOPED_TRACE(cs.name());
        ConvGraph cg(cs);
        for (int64_t act : kActs) {
            SCOPED_TRACE("act " + std::to_string(act));
            int node = cg.forward(cs, act);
            EXPECT_LT(
                maxRelDiff(
                    runKernel(cg.g, node, {cg.tx, cg.tw, cg.tb}, ""),
                    runKernel(cg.g, node, {cg.tx, cg.tw, cg.tb}, tier)),
                1e-5f);
        }
        for (int64_t limit : {cs.co, (cs.co + 1) / 2}) {
            SCOPED_TRACE("limitCo " + std::to_string(limit));
            int node = cg.bwdWeight(cs, limit);
            EXPECT_LT(maxRelDiff(runKernel(cg.g, node, {cg.tx, cg.tdy}, ""),
                                 runKernel(cg.g, node, {cg.tx, cg.tdy},
                                           tier)),
                      1e-5f);
        }
        int node = cg.bwdInput(cs);
        EXPECT_LT(maxRelDiff(runKernel(cg.g, node, {cg.tw, cg.tdy}, ""),
                             runKernel(cg.g, node, {cg.tw, cg.tdy}, tier)),
                  1e-5f);
    }
}

// ---- 2c. the depthwise driver -----------------------------------------
//
// DwConv2d, DwConvBiasAct, DwConv2dBwdInput, DwConv2dBwdWeight and
// QuantDwConv2d run one driver per tier. The references below are the
// scalar loops that driver replaced, kept verbatim: the scalar tier
// must equal them value for value on finite inputs, the fp32 tier stay
// within 1e-5 relative of scalar, the int8 tiers agree bit for bit, and
// every result is identical at 1 to 4 shards.

struct DwCase {
    int64_t n, ch, h, w, k, stride, pad;

    std::string
    name() const
    {
        return "dw n" + std::to_string(n) + " ch" + std::to_string(ch) +
               " " + std::to_string(h) + "x" + std::to_string(w) + " k" +
               std::to_string(k) + " s" + std::to_string(stride) + " p" +
               std::to_string(pad);
    }
    int64_t ho() const { return (h + 2 * pad - k) / stride + 1; }
    int64_t wo() const { return (w + 2 * pad - k) / stride + 1; }
};

/** The grid: k 3/5/7 x stride 1/2 x planes 1x1, 2x2, 4x4, 16x16 x
 *  channels 12/36/60 (partial 8-channel blocks) x batch 1/8, pad k/2;
 *  planes larger than one stack-tile band (24x70 bands whole rows,
 *  5x600 bands one row's columns); a 41x41 kernel whose taps alone
 *  outgrow the stack tile; and the edge cases of the loops' earlier
 *  sweep (pad 0, a 1x1 plane, outputs that see only padding). */
std::vector<DwCase>
dwCases()
{
    std::vector<DwCase> cases;
    for (int64_t k : {3, 5, 7})
        for (int64_t s : {1, 2}) {
            for (int64_t hw : {1, 2, 4, 16})
                for (int64_t ch : {12, 36, 60})
                    for (int64_t n : {1, 8})
                        cases.push_back({n, ch, hw, hw, k, s, k / 2});
            cases.push_back({8, 12, 24, 70, k, s, k / 2});
            cases.push_back({1, 12, 5, 600, k, s, k / 2});
        }
    for (DwCase c : std::vector<DwCase>{{2, 3, 16, 16, 3, 1, 1},
                                        {1, 4, 9, 9, 5, 2, 2},
                                        {2, 5, 7, 7, 7, 1, 3},
                                        {1, 2, 13, 13, 3, 2, 0},
                                        {2, 6, 11, 11, 3, 1, 0},
                                        {1, 12, 2, 2, 3, 1, 3},
                                        {1, 12, 40, 40, 41, 1, 20}})
        cases.push_back(c);
    return cases;
}

/** The replaced forward loops: taps in (kh, kw) order from the bias
 *  (DwConvBiasAct) or from zero (DwConv2d, @p bias null), padded taps
 *  skipped, then the activation (DwConvBiasAct only). */
Tensor
directDwConv(const DwCase &cs, const Tensor &x, const Tensor &w,
             const float *bias, int64_t act)
{
    int64_t ho = cs.ho(), wo = cs.wo(), k = cs.k;
    Tensor y({cs.n, cs.ch, ho, wo});
    for (int64_t n = 0; n < cs.n; ++n)
        for (int64_t c = 0; c < cs.ch; ++c) {
            const float *xp = x.data() + (n * cs.ch + c) * cs.h * cs.w;
            const float *wp = w.data() + c * k * k;
            float *op = y.data() + (n * cs.ch + c) * ho * wo;
            for (int64_t i = 0; i < ho; ++i)
                for (int64_t j = 0; j < wo; ++j) {
                    float acc = bias ? bias[c] : 0.0f;
                    for (int64_t a = 0; a < k; ++a) {
                        int64_t ih = i * cs.stride - cs.pad + a;
                        if (ih < 0 || ih >= cs.h)
                            continue;
                        for (int64_t b = 0; b < k; ++b) {
                            int64_t iw = j * cs.stride - cs.pad + b;
                            if (iw < 0 || iw >= cs.w)
                                continue;
                            acc += xp[ih * cs.w + iw] * wp[a * k + b];
                        }
                    }
                    op[i * wo + j] = bias ? kutil::actOf(act, acc) : acc;
                }
        }
    return y;
}

/** The replaced input-backward loop: each dy pixel, in (i, j) order,
 *  scatters dy * w onto the dx taps it read. */
Tensor
directDwBwdInput(const DwCase &cs, const Tensor &w, const Tensor &dy)
{
    int64_t ho = cs.ho(), wo = cs.wo(), k = cs.k;
    Tensor dx = Tensor::zeros({cs.n, cs.ch, cs.h, cs.w});
    for (int64_t n = 0; n < cs.n; ++n)
        for (int64_t c = 0; c < cs.ch; ++c) {
            const float *wp = w.data() + c * k * k;
            const float *gp = dy.data() + (n * cs.ch + c) * ho * wo;
            float *dp = dx.data() + (n * cs.ch + c) * cs.h * cs.w;
            for (int64_t i = 0; i < ho; ++i)
                for (int64_t j = 0; j < wo; ++j) {
                    float g = gp[i * wo + j];
                    if (g == 0.0f)
                        continue;
                    for (int64_t a = 0; a < k; ++a) {
                        int64_t ih = i * cs.stride - cs.pad + a;
                        if (ih < 0 || ih >= cs.h)
                            continue;
                        for (int64_t b = 0; b < k; ++b) {
                            int64_t iw = j * cs.stride - cs.pad + b;
                            if (iw < 0 || iw >= cs.w)
                                continue;
                            dp[ih * cs.w + iw] += g * wp[a * k + b];
                        }
                    }
                }
        }
    return dx;
}

/** The replaced weight-backward loop over the first @p limit channels:
 *  each tap sums dy * x in (n, i, j) order. */
Tensor
directDwBwdWeight(const DwCase &cs, const Tensor &x, const Tensor &dy,
                  int64_t limit)
{
    int64_t ho = cs.ho(), wo = cs.wo(), k = cs.k;
    Tensor dw = Tensor::zeros({limit, 1, k, k});
    for (int64_t c = 0; c < limit; ++c) {
        float *dwp = dw.data() + c * k * k;
        for (int64_t n = 0; n < cs.n; ++n) {
            const float *xp = x.data() + (n * cs.ch + c) * cs.h * cs.w;
            const float *gp = dy.data() + (n * cs.ch + c) * ho * wo;
            for (int64_t i = 0; i < ho; ++i)
                for (int64_t j = 0; j < wo; ++j) {
                    float g = gp[i * wo + j];
                    if (g == 0.0f)
                        continue;
                    for (int64_t a = 0; a < k; ++a) {
                        int64_t ih = i * cs.stride - cs.pad + a;
                        if (ih < 0 || ih >= cs.h)
                            continue;
                        for (int64_t b = 0; b < k; ++b) {
                            int64_t iw = j * cs.stride - cs.pad + b;
                            if (iw < 0 || iw >= cs.w)
                                continue;
                            dwp[a * k + b] += g * xp[ih * cs.w + iw];
                        }
                    }
                }
        }
    }
    return dw;
}

/** The replaced int8 loop: (x - zp) * w summed in int32 over the
 *  in-bounds taps in (kh, kw) order, one requantization. */
void
directQuantDw(const DwCase &cs, const int8_t *x, const int8_t *w,
              const kutil::Requant &rq, int8_t *y)
{
    int64_t ho = cs.ho(), wo = cs.wo(), k = cs.k;
    for (int64_t n = 0; n < cs.n; ++n)
        for (int64_t c = 0; c < cs.ch; ++c) {
            const int8_t *xp = x + (n * cs.ch + c) * cs.h * cs.w;
            const int8_t *wp = w + c * k * k;
            int8_t *op = y + (n * cs.ch + c) * ho * wo;
            for (int64_t i = 0; i < ho; ++i)
                for (int64_t j = 0; j < wo; ++j) {
                    int32_t acc = 0;
                    for (int64_t a = 0; a < k; ++a) {
                        int64_t ih = i * cs.stride - cs.pad + a;
                        if (ih < 0 || ih >= cs.h)
                            continue;
                        for (int64_t b = 0; b < k; ++b) {
                            int64_t iw = j * cs.stride - cs.pad + b;
                            if (iw < 0 || iw >= cs.w)
                                continue;
                            acc += (static_cast<int32_t>(xp[ih * cs.w + iw]) -
                                    rq.xZp) *
                                   static_cast<int32_t>(wp[a * k + b]);
                        }
                    }
                    op[i * wo + j] = rq.emit(acc, c);
                }
        }
}

/** One case's operands and one node per depthwise op. */
struct DwGraph {
    Graph g;
    int x, w, b, dy, scales;
    Tensor tx, tw, tb, tdy;
    // int8 operands: codes of x and w, per-channel weight scales.
    I8Buf qx, qw;
    std::vector<float> wscales;
    QuantParams xp, yp;

    explicit DwGraph(const DwCase &cs, uint64_t seed = 105)
        : qx(cs.n * cs.ch * cs.h * cs.w), qw(cs.ch * cs.k * cs.k)
    {
        Rng rng(seed);
        x = g.input({cs.n, cs.ch, cs.h, cs.w}, "x");
        w = g.param({cs.ch, 1, cs.k, cs.k}, "w", true);
        b = g.param({cs.ch, 1, 1}, "b", true);
        dy = g.input({cs.n, cs.ch, cs.ho(), cs.wo()}, "dy");
        scales = g.input({cs.ch}, "s");
        tx = Tensor::randn(g.node(x).shape, rng);
        tw = Tensor::randn(g.node(w).shape, rng, 0.3f);
        tb = Tensor::randn(g.node(b).shape, rng);
        tdy = Tensor::randn(g.node(dy).shape, rng);
        xp = chooseQuantParams(-2.5f, 2.5f);
        yp = chooseQuantParams(-4.0f, 4.0f);
        quantizeInto(tx, xp.scale, xp.zeroPoint, qx);
        wscales = quantizeWeight(tw, 0, qw);
    }

    Attrs
    attrs(const DwCase &cs) const
    {
        Attrs a;
        a.set("stride", cs.stride);
        a.set("pad", cs.pad);
        return a;
    }

    int
    plain(const DwCase &cs)
    {
        return g.add(OpKind::DwConv2d, {x, w}, attrs(cs));
    }

    int
    fused(const DwCase &cs, int64_t act)
    {
        Attrs a = attrs(cs);
        a.set("act", act);
        return g.add(OpKind::DwConvBiasAct, {x, w, b}, std::move(a));
    }

    int
    bwdInput(const DwCase &cs)
    {
        Attrs a = attrs(cs);
        a.set("xshape", g.node(x).shape);
        return g.add(OpKind::DwConv2dBwdInput, {w, dy}, std::move(a));
    }

    int
    bwdWeight(const DwCase &cs, int64_t limit)
    {
        Attrs a = attrs(cs);
        a.set("wshape", g.node(w).shape);
        if (limit < cs.ch)
            a.set("limitCo", limit);
        return g.add(OpKind::DwConv2dBwdWeight, {x, dy}, std::move(a));
    }

    /** QuantDwConv2d with bias, per-channel scales and @p act. */
    int
    quant(const DwCase &cs, int64_t act)
    {
        Attrs a = attrs(cs);
        a.set("act", act);
        a.set("hasBias", static_cast<int64_t>(1));
        a.set("perChannel", static_cast<int64_t>(1));
        a.set("xScale", static_cast<double>(xp.scale));
        a.set("xZp", static_cast<int64_t>(xp.zeroPoint));
        a.set("yScale", static_cast<double>(yp.scale));
        a.set("yZp", static_cast<int64_t>(yp.zeroPoint));
        return g.add(OpKind::QuantDwConv2d, {x, w, b, scales}, std::move(a));
    }

    /** The fp32 operands of @p node, in input order. */
    std::vector<const float *>
    operands(int node) const
    {
        std::vector<const float *> in;
        for (int i : g.node(node).inputs)
            in.push_back(i == x    ? tx.data()
                         : i == w  ? tw.data()
                         : i == b  ? tb.data()
                         : i == dy ? tdy.data()
                                   : nullptr);
        return in;
    }

    /** Run @p node at @p variant into @p out, split into @p shards
     *  consecutive partition ranges (0: one unsharded call). */
    void
    run(int node, const std::vector<const float *> &in, float *out,
        const std::string &variant, int shards = 0) const
    {
        const Node &n = g.node(node);
        KernelCtx c;
        c.node = &n;
        c.in = in;
        for (int i : n.inputs)
            c.inShapes.push_back(&g.node(i).shape);
        c.out = out;
        c.outShape = &n.shape;
        KernelInfo info = lookupKernelInfo(n.op, variant);
        ASSERT_FALSE(info.fellBack) << opName(n.op) << "/" << variant;
        if (shards == 0) {
            info.fn(c);
            return;
        }
        int64_t extent = info.part.extent(c);
        for (int s = 0; s < shards; ++s) {
            KernelCtx shard = c;
            shard.begin = extent * s / shards;
            shard.end = extent * (s + 1) / shards;
            if (shard.end > shard.begin)
                info.fn(shard);
        }
    }

    Tensor
    runF32(int node, const std::string &variant, int shards = 0) const
    {
        Tensor out(g.node(node).shape);
        run(node, operands(node), out.data(), variant, shards);
        return out;
    }

    std::vector<int8_t>
    runI8(int node, const std::string &variant, int shards = 0) const
    {
        const Shape &s = g.node(node).shape;
        I8Buf out(numel(s));
        run(node, {qx.asF32(), qw.asF32(), tb.data(), wscales.data()},
            out.asF32Mut(), variant, shards);
        const int8_t *p = reinterpret_cast<const int8_t *>(out.asF32());
        return std::vector<int8_t>(p, p + numel(s));
    }

    kutil::Requant
    requant(int node) const
    {
        KernelCtx c;
        c.node = &g.node(node);
        c.in = {qx.asF32(), qw.asF32(), tb.data(), wscales.data()};
        return kutil::requantOf(c);
    }
};

TEST(DwConv, ScalarEqualsDirectLoops)
{
    for (const DwCase &cs : dwCases()) {
        SCOPED_TRACE(cs.name());
        DwGraph dg(cs);
        EXPECT_EQ(valueMismatches(dg.runF32(dg.plain(cs), ""),
                                  directDwConv(cs, dg.tx, dg.tw, nullptr,
                                               kActNone)),
                  0)
            << "DwConv2d";
        for (int64_t act : kActs)
            EXPECT_EQ(valueMismatches(dg.runF32(dg.fused(cs, act), ""),
                                      directDwConv(cs, dg.tx, dg.tw,
                                                   dg.tb.data(), act)),
                      0)
                << "DwConvBiasAct act " << act;
        EXPECT_EQ(valueMismatches(dg.runF32(dg.bwdInput(cs), ""),
                                  directDwBwdInput(cs, dg.tw, dg.tdy)),
                  0)
            << "DwConv2dBwdInput";
        for (int64_t limit : {cs.ch, (cs.ch + 1) / 2})
            EXPECT_EQ(valueMismatches(
                          dg.runF32(dg.bwdWeight(cs, limit), ""),
                          directDwBwdWeight(cs, dg.tx, dg.tdy, limit)),
                      0)
                << "DwConv2dBwdWeight limit " << limit;
        for (int64_t act : {kActNone, kActRelu, kActGelu}) {
            int node = dg.quant(cs, act);
            std::vector<int8_t> want(numel(dg.g.node(node).shape));
            directQuantDw(cs, dg.qx.data(), dg.qw.data(), dg.requant(node),
                          want.data());
            EXPECT_EQ(dg.runI8(node, ""), want)
                << "QuantDwConv2d act " << act;
        }
    }
}

TEST(SimdParity, Fp32DwConvBiasActWithin1e5Relative)
{
    SKIP_WITHOUT_SIMD();
    std::string tier = hostTier();
    for (const DwCase &cs : dwCases()) {
        SCOPED_TRACE(cs.name());
        DwGraph dg(cs);
        std::vector<int> nodes = {dg.plain(cs), dg.bwdInput(cs)};
        for (int64_t act : kActs)
            nodes.push_back(dg.fused(cs, act));
        for (int node : nodes)
            EXPECT_LT(maxRelDiff(dg.runF32(node, ""), dg.runF32(node, tier)),
                      1e-5f)
                << opName(dg.g.node(node).op);
        // The weight gradient sums up to a batch of planes per tap; every
        // tier rounds it like the scalar lanes, so it is identical.
        for (int64_t limit : {cs.ch, (cs.ch + 1) / 2}) {
            int node = dg.bwdWeight(cs, limit);
            EXPECT_TRUE(sameBits(dg.runF32(node, ""), dg.runF32(node, tier)))
                << "DwConv2dBwdWeight limit " << limit;
        }
    }
}

TEST(SimdParity, Int8DwConvBitExactAcrossTiers)
{
    SKIP_WITHOUT_SIMD();
    std::string tier = hostTier();
    for (const DwCase &cs : dwCases()) {
        SCOPED_TRACE(cs.name());
        DwGraph dg(cs);
        for (int64_t act : {kActNone, kActRelu, kActGelu}) {
            int node = dg.quant(cs, act);
            EXPECT_EQ(dg.runI8(node, ""), dg.runI8(node, tier))
                << "act " << act;
        }
    }
}

TEST(DwConv, IdenticalAtOneToFourShards)
{
    std::vector<std::string> tiers = {""};
    if (!hostTier().empty())
        tiers.push_back(hostTier());
    for (const DwCase &cs : dwCases()) {
        if (cs.n * cs.ch * cs.h * cs.w > 40000 || cs.k > 7)
            continue; // banded planes, huge kernel: covered above
        SCOPED_TRACE(cs.name());
        DwGraph dg(cs);
        std::vector<int> nodes = {dg.fused(cs, kActRelu), dg.bwdInput(cs),
                                  dg.bwdWeight(cs, (cs.ch + 1) / 2)};
        int quant = dg.quant(cs, kActRelu);
        for (const std::string &v : tiers) {
            for (int node : nodes) {
                Tensor whole = dg.runF32(node, v);
                for (int shards = 1; shards <= 4; ++shards)
                    EXPECT_TRUE(sameBits(dg.runF32(node, v, shards), whole))
                        << opName(dg.g.node(node).op) << "/" << v << " at "
                        << shards << " shards";
            }
            std::vector<int8_t> whole = dg.runI8(quant, v);
            for (int shards = 1; shards <= 4; ++shards)
                EXPECT_EQ(dg.runI8(quant, v, shards), whole)
                    << "QuantDwConv2d/" << v << " at " << shards << " shards";
        }
    }
}

TEST(DwConv, LargePlanesRunInBandsAndSmallOnesInOneTile)
{
    // The grid's 24x70 and 5x600 planes exceed one stack tile, so they
    // really exercise the row-band and column-band traversals, and its
    // 41x41 kernel the heap-backed tile.
    auto geom = [](const DwCase &cs, OpKind op) {
        DwGraph dg(cs);
        int node = op == OpKind::DwConv2dBwdWeight ? dg.bwdWeight(cs, cs.ch)
                   : op == OpKind::DwConv2dBwdInput ? dg.bwdInput(cs)
                                                    : dg.plain(cs);
        const Node &n = dg.g.node(node);
        KernelCtx c;
        c.node = &n;
        for (int i : n.inputs)
            c.inShapes.push_back(&dg.g.node(i).shape);
        c.outShape = &n.shape;
        return kutil::dwGeomOf(c);
    };
    for (OpKind op : {OpKind::DwConv2d, OpKind::DwConv2dBwdInput,
                      OpKind::DwConv2dBwdWeight}) {
        SCOPED_TRACE(opName(op));
        kutil::DwGeom rows = geom({8, 12, 24, 70, 7, 1, 3}, op);
        EXPECT_LT(rows.bandRows, rows.rows);
        EXPECT_EQ(rows.bandCols, rows.cols);
        kutil::DwGeom cols = geom({1, 12, 5, 600, 7, 1, 3}, op);
        EXPECT_EQ(cols.bandRows, 1);
        EXPECT_LT(cols.bandCols, cols.cols);
        kutil::DwGeom small = geom({8, 288, 2, 2, 7, 1, 3}, op);
        EXPECT_TRUE(small.singleTile());
        for (const kutil::DwGeom &d : {rows, cols, small})
            EXPECT_LE(d.tileBytes, kutil::kDwTileBytes);
        // Only a kernel whose tap rectangle outgrows the tile allocates.
        kutil::DwGeom huge = geom({1, 12, 40, 40, 41, 1, 20}, op);
        EXPECT_GT(huge.tileBytes, kutil::kDwTileBytes);
    }
}

/** Build + run one QuantMatMul with the given geometry twice (scalar
 *  int8 vs SIMD int8) and require bit-exact codes. */
void
checkQGemmBitExact(int64_t m, int64_t k, int64_t n, bool with_bias,
                   int64_t act, Rng &rng)
{
    std::string tier = hostTier();
    Tensor a = Tensor::uniform({m, k}, rng, -1.0f, 1.0f);
    Tensor w = Tensor::uniform({k, n}, rng, -0.8f, 0.8f);
    Tensor bias = Tensor::uniform({n}, rng, -0.5f, 0.5f);
    QuantParams ap = chooseQuantParams(-1.0f, 1.0f);
    QuantParams yp = chooseQuantParams(-6.0f, 6.0f);
    I8Buf qa(m * k), qw(k * n);
    quantizeInto(a, ap.scale, ap.zeroPoint, qa);
    std::vector<float> wscales = quantizeWeight(w, 1, qw);

    Graph g;
    int ia = g.input({m, k}, "a");
    int iw = g.input({k, n}, "w");
    int ib = g.input({n}, "b");
    int is = g.input({n}, "s");
    Attrs at;
    at.set("xScale", static_cast<double>(ap.scale));
    at.set("xZp", static_cast<int64_t>(ap.zeroPoint));
    at.set("yScale", static_cast<double>(yp.scale));
    at.set("yZp", static_cast<int64_t>(yp.zeroPoint));
    at.set("perChannel", static_cast<int64_t>(1));
    at.set("hasBias", static_cast<int64_t>(with_bias ? 1 : 0));
    at.set("act", act);
    std::vector<int> inputs = {ia, iw};
    if (with_bias)
        inputs.push_back(ib);
    inputs.push_back(is);
    int node = g.add(OpKind::QuantMatMul, inputs, std::move(at));

    const Node &nd = g.node(node);
    auto run = [&](const std::string &variant, I8Buf &dst) {
        KernelCtx c;
        c.node = &nd;
        c.in = {qa.asF32(), qw.asF32()};
        c.inShapes = {&g.node(nd.inputs[0]).shape,
                      &g.node(nd.inputs[1]).shape};
        if (with_bias) {
            c.in.push_back(bias.data());
            c.inShapes.push_back(&g.node(nd.inputs[2]).shape);
        }
        c.in.push_back(wscales.data());
        c.inShapes.push_back(
            &g.node(nd.inputs[nd.inputs.size() - 1]).shape);
        c.out = dst.asF32Mut();
        c.outShape = &nd.shape;
        DirectWorkspace ws;
        ws.attach(c, g, nd, variant);
        lookupKernel(OpKind::QuantMatMul, variant)(c);
    };
    I8Buf scalar(m * n), simd(m * n);
    run("", scalar);
    run(tier, simd);
    EXPECT_EQ(maxCodeDiff(scalar, simd, m * n), 0)
        << m << "x" << k << "x" << n << " bias=" << with_bias
        << " act=" << act;
}

TEST(SimdParity, Int8GemmBitExact)
{
    SKIP_WITHOUT_SIMD();
    Rng rng(103);
    struct S {
        int64_t m, k, n;
    };
    // Tails everywhere: k not a multiple of 16/8 (dot-product tail),
    // n not a multiple of 8/4 (requant tail), single elements.
    std::vector<S> shapes = {{1, 1, 1},  {4, 16, 8},  {5, 17, 9},
                             {12, 24, 10}, {3, 7, 1},  {1, 33, 13},
                             {9, 64, 40}};
    for (auto [m, k, n] : shapes) {
        for (bool with_bias : {false, true}) {
            for (int64_t act : {kActNone, kActRelu, kActGelu})
                checkQGemmBitExact(m, k, n, with_bias, act, rng);
        }
    }
}

TEST(SimdParity, Int8ConvAndDepthwiseBitExact)
{
    SKIP_WITHOUT_SIMD();
    std::string tier = hostTier();
    Rng rng(104);
    struct S {
        int64_t ch, hw, k, stride, pad;
    };
    std::vector<S> shapes = {{1, 1, 1, 1, 0}, {3, 8, 3, 1, 1},
                             {4, 9, 3, 2, 1}, {8, 12, 5, 1, 2},
                             {5, 7, 3, 1, 0}, {2, 16, 3, 1, 1}};
    for (auto [ch, hw, k, stride, pad] : shapes) {
        SCOPED_TRACE("q ch" + std::to_string(ch) + " hw" +
                     std::to_string(hw) + " k" + std::to_string(k) +
                     " s" + std::to_string(stride) + " p" +
                     std::to_string(pad));
        for (OpKind op :
             {OpKind::QuantConv2d, OpKind::QuantDwConv2d}) {
            bool dw = op == OpKind::QuantDwConv2d;
            int64_t N = 2, Co = dw ? ch : ch + 1;
            Tensor x =
                Tensor::uniform({N, ch, hw, hw}, rng, -1.0f, 1.0f);
            Shape wshape = dw ? Shape{ch, 1, k, k}
                              : Shape{Co, ch, k, k};
            Tensor w = Tensor::uniform(wshape, rng, -0.6f, 0.6f);
            Tensor bias =
                Tensor::uniform({Co, 1, 1}, rng, -0.3f, 0.3f);
            QuantParams xp = chooseQuantParams(-1.0f, 1.0f);
            QuantParams yp = chooseQuantParams(-4.0f, 4.0f);
            I8Buf qx(x.size()), qw(w.size());
            quantizeInto(x, xp.scale, xp.zeroPoint, qx);
            std::vector<float> wscales = quantizeWeight(w, 0, qw);

            Graph g;
            int ix = g.input({N, ch, hw, hw}, "x");
            int iw = g.input(wshape, "w");
            int ib = g.input({Co, 1, 1}, "b");
            int is = g.input({Co}, "s");
            Attrs at;
            at.set("stride", stride);
            at.set("pad", pad);
            at.set("act", static_cast<int64_t>(kActRelu));
            at.set("hasBias", static_cast<int64_t>(1));
            at.set("perChannel", static_cast<int64_t>(1));
            at.set("xScale", static_cast<double>(xp.scale));
            at.set("xZp", static_cast<int64_t>(xp.zeroPoint));
            at.set("yScale", static_cast<double>(yp.scale));
            at.set("yZp", static_cast<int64_t>(yp.zeroPoint));
            int node = g.add(op, {ix, iw, ib, is}, std::move(at));
            const Node &nd = g.node(node);
            int64_t out_n = numel(nd.shape);

            auto run = [&](const std::string &variant, I8Buf &dst) {
                KernelCtx c;
                c.node = &nd;
                c.in = {qx.asF32(), qw.asF32(), bias.data(),
                        wscales.data()};
                c.inShapes = {&g.node(ix).shape, &g.node(iw).shape,
                              &g.node(ib).shape, &g.node(is).shape};
                c.out = dst.asF32Mut();
                c.outShape = &nd.shape;
                DirectWorkspace ws;
                ws.attach(c, g, nd, variant);
                lookupKernel(op, variant)(c);
            };
            I8Buf scalar(out_n), simd(out_n);
            run("", scalar);
            run(tier, simd);
            EXPECT_EQ(maxCodeDiff(scalar, simd, out_n), 0)
                << (dw ? "depthwise" : "conv");
        }
    }
}

// ---- 3. compile integration ------------------------------------------

struct CompiledMcuNet {
    std::shared_ptr<ParamStore> store = std::make_shared<ParamStore>();
    ModelSpec m;
    Shape inShape{2, 3, 12, 12};

    CompiledMcuNet()
    {
        VisionConfig cfg;
        cfg.batch = 2;
        cfg.resolution = 12;
        cfg.width = 0.5;
        cfg.blocks = 2;
        Rng rng(31);
        m = buildMcuNet(cfg, rng, store.get());
        std::vector<Feeds> calib;
        Rng crng(32);
        for (int i = 0; i < 2; ++i)
            calib.push_back({{"x", Tensor::randn(inShape, crng)}});
        calibrate(m.graph, *store, calib);
    }
};

TEST(TierCompile, McuNetInt8BindsSimdStepsAndReportsTiers)
{
    CompiledMcuNet f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    InferenceProgram prog =
        compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    const CompileReport &r = prog.report();
    // The tentpole acceptance: zero quantized-depthwise fallbacks.
    EXPECT_EQ(r.kernelFallbacks, 0);
    EXPECT_TRUE(r.fallbackBreakdown().empty());
    EXPECT_EQ(static_cast<int>(r.stepTiers.size()), r.kernelSteps);
    EXPECT_EQ(r.simdTier, simdTierName(hostSimdTier()));
    if (hostSimdTier() != SimdTier::Scalar) {
        // On a SIMD host the int8 conv/depthwise/matmul steps all
        // bind the tier.
        EXPECT_GT(r.simdSteps, 0);
        EXPECT_NE(r.tierBreakdown().find(r.simdTier),
                  std::string::npos);
    } else {
        EXPECT_EQ(r.simdSteps, 0);
    }
}

TEST(TierCompile, ForceScalarTierPinsEverything)
{
    CompiledMcuNet f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    opt.forceScalarTier = true;
    InferenceProgram prog =
        compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    EXPECT_EQ(prog.report().simdTier, "scalar");
    EXPECT_EQ(prog.report().simdSteps, 0);
    for (const std::string &t : prog.report().stepTiers)
        EXPECT_EQ(t, "scalar");
}

TEST(TierCompile, Int8ForwardAgreesAcrossTiers)
{
    // int8 compute is bit-exact across tiers; the only cross-tier
    // rounding differences come from the fp32 steps around it
    // (quantize/dequantize boundaries are scalar in both programs),
    // so logits agree tightly.
    CompiledMcuNet f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    InferenceProgram simd =
        compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    CompileOptions sopt = opt;
    sopt.forceScalarTier = true;
    InferenceProgram scalar =
        compileInference(f.m.graph, {f.m.logits}, sopt, f.store);
    Tensor x;
    {
        Rng rng(33);
        x = Tensor::randn(f.inShape, rng);
    }
    Tensor a = simd.run({{"x", x}})[0];
    Tensor b = scalar.run({{"x", x}})[0];
    EXPECT_LT(maxRelDiff(a, b), 1e-4f);
}

TEST(TierCompile, MlpLinearLayersRunTheGemm)
{
    // 64x256 -> 256 linear+relu -> 10, full BP. Both linear layers
    // fuse into MatMulBiasAct; every GEMM step — the fused forward
    // layers and the backward MatMuls — binds the host tier.
    Graph g;
    Rng rng(108);
    auto store = std::make_shared<ParamStore>();
    NetBuilder nb(g, rng, store.get());
    int x = nb.input({64, 256}, "x");
    int h = nb.relu(nb.linear(x, 256, "fc1"));
    int logits = nb.linear(h, 10, "head");
    int y = nb.input({64}, "y");
    int loss = nb.crossEntropy(logits, y);
    Rng r(109);
    store->set("fc1.bias", Tensor::randn({256}, r));
    store->set("head.bias", Tensor::randn({10}, r));
    CompileOptions opt;
    opt.optim = OptimConfig::sgd(0.01);
    TrainingProgram train = compileTraining(
        g, loss, SparseUpdateScheme::full(), opt, store);
    const Executor &ex = train.executor();
    int fused_steps = 0, gemm_steps = 0, si = 0;
    for (int id : ex.order()) {
        OpKind op = ex.graph().node(id).op;
        if (isSourceOp(op))
            continue;
        const std::string &tier = ex.stepTiers()[si++];
        if (op != OpKind::MatMul && op != OpKind::MatMulBiasAct &&
            op != OpKind::BatchMatMul)
            continue;
        ++gemm_steps;
        fused_steps += op == OpKind::MatMulBiasAct;
        EXPECT_EQ(tier, simdTierName(hostSimdTier())) << opName(op);
    }
    EXPECT_EQ(fused_steps, 2);
    EXPECT_GT(gemm_steps, fused_steps);

    // Scalar: the forward equals the deleted fused loop bit for bit.
    CompileOptions sopt;
    sopt.forceScalarTier = true;
    InferenceProgram inf = compileInference(g, {logits}, sopt, store);
    Tensor tx = Tensor::randn({64, 256}, r);
    Tensor got = inf.run({{"x", tx}})[0];
    Tensor hidden =
        naiveGemm(tx, store->get("fc1.weight"),
                  store->get("fc1.bias").data(), kActRelu, 64, 256, 256,
                  false, false);
    Tensor want =
        naiveGemm(hidden, store->get("head.weight"),
                  store->get("head.bias").data(), kActNone, 64, 256, 10,
                  false, false);
    EXPECT_TRUE(sameBits(got, want));
}

/** Loss of the first two SGD steps of a full-BP MCUNet-proxy compiled
 *  with fusion off, so every conv stays a bare Conv2d/DwConv2d. */
std::vector<float>
unfusedConvNetLosses(bool forceScalar, std::vector<std::string> *convTiers)
{
    Rng rng(3);
    auto store = std::make_shared<ParamStore>();
    VisionConfig vc;
    vc.batch = 4;
    vc.resolution = 16;
    ModelSpec m = buildMcuNet(vc, rng, store.get());
    CompileOptions opt;
    opt.fuse = false;
    opt.forceScalarTier = forceScalar;
    opt.optim = OptimConfig::sgd(0.05);
    TrainingProgram prog = compileTraining(
        m.graph, m.loss, SparseUpdateScheme::full(), opt, store);
    if (convTiers) {
        const Executor &ex = prog.executor();
        int si = 0;
        for (int id : ex.order()) {
            OpKind op = ex.graph().node(id).op;
            if (isSourceOp(op))
                continue;
            const std::string &tier = ex.stepTiers()[si++];
            if (op == OpKind::Conv2d || op == OpKind::DwConv2d)
                convTiers->push_back(std::string(opName(op)) + "/" + tier);
        }
    }
    SyntheticVision task = SyntheticVision::pretrain(3, 16);
    Rng r(5);
    std::vector<float> losses;
    for (int s = 0; s < 2; ++s) {
        Batch b = task.sample(4, r);
        losses.push_back(prog.trainStep({{"x", b.x}, {"y", b.y}}));
    }
    return losses;
}

TEST(TierCompile, UnfusedConvNetBindsNoScalarConv)
{
    // With fusion off every conv stays a bare Conv2d or DwConv2d; each
    // still binds its op's one kernel at the host tier.
    if (hostTier().empty() ||
        !hasKernelVariant(OpKind::DwConv2d, hostTier()))
        GTEST_SKIP() << "no depthwise fp32 tier on this host";
    std::vector<std::string> tiers;
    std::vector<float> simd = unfusedConvNetLosses(false, &tiers);
    ASSERT_FALSE(tiers.empty());
    for (const std::string &t : tiers)
        EXPECT_EQ(t.substr(t.find('/') + 1), hostTier()) << t;
    std::vector<float> scalar = unfusedConvNetLosses(true, nullptr);
    ASSERT_EQ(simd.size(), scalar.size());
    for (size_t i = 0; i < simd.size(); ++i)
        EXPECT_NEAR(simd[i], scalar[i], 1e-5f * std::fabs(scalar[i]))
            << "step " << i;
}

// ---- 4. deployment ---------------------------------------------------

TEST(TierDeploy, PlanWithSimdVariantsDowngradesOnScalarHost)
{
    SKIP_WITHOUT_SIMD();
    CompiledMcuNet f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    InferenceProgram prog =
        compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    ASSERT_GT(prog.report().simdSteps, 0);
    std::string blob =
        serializePlan(prog.graph(), prog.executor().exportArtifact(),
                      prog.report(), *f.store);

    Tensor x;
    {
        Rng rng(34);
        x = Tensor::randn(f.inShape, rng);
    }

    // Load the SIMD-variant plan as a scalar-only host would see it.
    Tensor downgraded;
    {
        TierOverride scalar_host(SimdTier::Scalar);
        auto loaded = loadPlanFromBytes(blob);
        EXPECT_EQ(loaded->report().simdTier, "scalar");
        EXPECT_EQ(loaded->report().simdSteps, 0);
        for (const std::string &t : loaded->report().stepTiers)
            EXPECT_EQ(t, "scalar");
        downgraded = loaded->run({{"x", x}})[0];
    }

    // The downgraded program must be bit-identical to compiling the
    // same model with the scalar tier forced: the artifact's plan was
    // built against the scalar-identical partition/workspace specs,
    // so only the kernel bodies differ — and those are now the same
    // scalar bodies.
    CompileOptions sopt = opt;
    sopt.forceScalarTier = true;
    InferenceProgram scalar =
        compileInference(f.m.graph, {f.m.logits}, sopt, f.store);
    Tensor want = scalar.run({{"x", x}})[0];
    ASSERT_EQ(downgraded.shape(), want.shape());
    EXPECT_EQ(std::memcmp(downgraded.data(), want.data(),
                          sizeof(float) *
                              static_cast<size_t>(want.size())),
              0);

    // And loading on THIS host re-binds the SIMD tier: upgrade at
    // load is allowed because the swap provably fits the plan.
    auto native = loadPlanFromBytes(blob);
    EXPECT_EQ(native->report().simdTier,
              simdTierName(hostSimdTier()));
    EXPECT_GT(native->report().simdSteps, 0);
    Tensor same = native->run({{"x", x}})[0];
    EXPECT_LT(maxRelDiff(same, downgraded), 1e-4f);
}

TEST(TierDeploy, ScalarPlanUpgradesOnSimdHost)
{
    SKIP_WITHOUT_SIMD();
    CompiledMcuNet f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    opt.forceScalarTier = true;
    InferenceProgram prog =
        compileInference(f.m.graph, {f.m.logits}, opt, f.store);
    ASSERT_EQ(prog.report().simdSteps, 0);
    std::string blob =
        serializePlan(prog.graph(), prog.executor().exportArtifact(),
                      prog.report(), *f.store);
    auto loaded = loadPlanFromBytes(blob);
    // The scalar plan's workspace/launch geometry is identical to the
    // tier's (registration contract), so load-time upgrade kicks in.
    EXPECT_EQ(loaded->report().simdTier, simdTierName(hostSimdTier()));
    EXPECT_GT(loaded->report().simdSteps, 0);
}

} // namespace
} // namespace pe
