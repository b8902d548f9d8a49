/**
 * @file
 * Kernel-level tests: every conv kernel must agree with a naive
 * direct loop (the im2col GEMM, Winograd; the GEMM's bit-level
 * references live in test_simd.cc next to its tier parity), fused ops
 * must match
 * their unfused compositions, and numerically delicate kernels
 * (softmax, cross-entropy) must be stable.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "core/tensor.h"
#include "frontend/builder.h"
#include "kernels/kernel.h"
#include "testutil.h"

namespace pe {
namespace {

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

struct ConvParam {
    int64_t ci, co, hw, stride, pad;
};

/** Naive direct 3x3 conv of a [2, ci, hw, hw] input: (ci, kh, kw)
 *  taps per output pixel, padded taps skipped. */
Tensor
naiveConv3x3(const Tensor &x, const Tensor &w, const ConvParam &p)
{
    int64_t o = (p.hw + 2 * p.pad - 3) / p.stride + 1;
    Tensor y({2, p.co, o, o});
    for (int64_t n = 0; n < 2; ++n)
        for (int64_t co = 0; co < p.co; ++co)
            for (int64_t i = 0; i < o; ++i)
                for (int64_t j = 0; j < o; ++j) {
                    float acc = 0;
                    for (int64_t ci = 0; ci < p.ci; ++ci)
                        for (int64_t a = 0; a < 3; ++a) {
                            int64_t ih = i * p.stride - p.pad + a;
                            if (ih < 0 || ih >= p.hw)
                                continue;
                            for (int64_t b = 0; b < 3; ++b) {
                                int64_t iw = j * p.stride - p.pad + b;
                                if (iw < 0 || iw >= p.hw)
                                    continue;
                                acc += x[((n * p.ci + ci) * p.hw + ih) *
                                             p.hw + iw] *
                                       w[((co * p.ci + ci) * 3 + a) * 3 + b];
                            }
                        }
                    y[((n * p.co + co) * o + i) * o + j] = acc;
                }
    return y;
}

class ConvVariants : public ::testing::TestWithParam<ConvParam>
{
};

TEST_P(ConvVariants, Im2colMatchesNaive)
{
    auto [ci, co, hw, stride, pad] = GetParam();
    Rng rng(3);
    Graph g;
    int x = g.input({2, ci, hw, hw}, "x");
    int w = g.param({co, ci, 3, 3}, "w", false);
    Attrs a;
    a.set("stride", stride);
    a.set("pad", pad);
    int conv = g.add(OpKind::Conv2d, {x, w}, std::move(a));
    Tensor tx = Tensor::randn({2, ci, hw, hw}, rng);
    Tensor tw = Tensor::randn({co, ci, 3, 3}, rng, 0.3f);
    Tensor im2col = runKernel(g, conv, {tx, tw}, "");
    EXPECT_LT(maxAbsDiff(naiveConv3x3(tx, tw, GetParam()), im2col), 1e-4f);
}

TEST_P(ConvVariants, WinogradMatchesNaiveWhenStride1)
{
    auto [ci, co, hw, stride, pad] = GetParam();
    if (stride != 1)
        GTEST_SKIP() << "Winograd variant requires stride 1";
    Rng rng(3);
    Graph g;
    int x = g.input({2, ci, hw, hw}, "x");
    int w = g.param({co, ci, 3, 3}, "w", false);
    Attrs a;
    a.set("stride", stride);
    a.set("pad", pad);
    int conv = g.add(OpKind::Conv2d, {x, w}, std::move(a));
    Tensor tx = Tensor::randn({2, ci, hw, hw}, rng);
    Tensor tw = Tensor::randn({co, ci, 3, 3}, rng, 0.3f);
    Tensor wino = runKernel(g, conv, {tx, tw}, "winograd");
    EXPECT_LT(maxAbsDiff(naiveConv3x3(tx, tw, GetParam()), wino), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvVariants,
    ::testing::Values(ConvParam{3, 8, 8, 1, 1}, ConvParam{4, 4, 9, 1, 1},
                      ConvParam{1, 2, 7, 1, 0}, ConvParam{3, 8, 8, 2, 1},
                      ConvParam{8, 16, 12, 1, 1}));

/**
 * Reference for ConvBiasAct: the composition it replaces — Conv2d,
 * then a per-channel bias add, then the activation. Adds a Conv2d
 * node over @p x / @p w to @p g.
 */
Tensor
convBiasActReference(Graph &g, int x, int w, const Tensor &tx,
                     const Tensor &tw, const Tensor &tb, int64_t stride,
                     int64_t pad, int64_t act)
{
    Attrs ca;
    ca.set("stride", stride);
    ca.set("pad", pad);
    int conv = g.add(OpKind::Conv2d, {x, w}, std::move(ca));
    Tensor out = runKernel(g, conv, {tx, tw}, "");
    const Shape &s = g.node(conv).shape;
    int64_t plane = s[2] * s[3];
    for (int64_t i = 0; i < out.size(); ++i) {
        float v = out[i] + tb[(i / plane) % s[1]];
        if (act == kActRelu)
            v = v > 0 ? v : 0.0f;
        out[i] = v;
    }
    return out;
}

TEST(FusedKernels, ConvBiasReluMatchesComposition)
{
    Rng rng(5);
    Graph g;
    int x = g.input({2, 3, 8, 8}, "x");
    int w = g.param({6, 3, 3, 3}, "w", false);
    int b = g.param({6, 1, 1}, "b", false);
    Attrs a;
    a.set("stride", static_cast<int64_t>(1));
    a.set("pad", static_cast<int64_t>(1));
    a.set("act", static_cast<int64_t>(kActRelu));
    int fused = g.add(OpKind::ConvBiasAct, {x, w, b}, a);

    Tensor tx = Tensor::randn({2, 3, 8, 8}, rng);
    Tensor tw = Tensor::randn({6, 3, 3, 3}, rng, 0.3f);
    Tensor tb = Tensor::randn({6, 1, 1}, rng);
    Tensor ref = convBiasActReference(g, x, w, tx, tw, tb, 1, 1, kActRelu);
    // The GEMM's bias seeds its accumulator instead of being added
    // last, so the two orders agree to rounding.
    Tensor got = runKernel(g, fused, {tx, tw, tb}, "");
    EXPECT_LT(maxAbsDiff(got, ref), 1e-4f);
}

TEST(FusedKernels, WinogradConvBiasActMatchesComposition)
{
    Rng rng(5);
    Graph g;
    int x = g.input({1, 4, 10, 10}, "x");
    int w = g.param({4, 4, 3, 3}, "w", false);
    int b = g.param({4, 1, 1}, "b", false);
    Attrs a;
    a.set("stride", static_cast<int64_t>(1));
    a.set("pad", static_cast<int64_t>(1));
    a.set("act", static_cast<int64_t>(kActRelu));
    int fused = g.add(OpKind::ConvBiasAct, {x, w, b}, a);
    Tensor tx = Tensor::randn({1, 4, 10, 10}, rng);
    Tensor tw = Tensor::randn({4, 4, 3, 3}, rng, 0.3f);
    Tensor tb = Tensor::randn({4, 1, 1}, rng);
    Tensor ref = convBiasActReference(g, x, w, tx, tw, tb, 1, 1, kActRelu);
    Tensor wino = runKernel(g, fused, {tx, tw, tb}, "winograd");
    EXPECT_LT(maxAbsDiff(ref, wino), 1e-3f);
}

TEST(WinogradCache, StaticWeightTransformIsCachedAndReused)
{
    Rng rng(5);
    Graph g;
    int x = g.input({1, 2, 8, 8}, "x");
    int w = g.param({2, 2, 3, 3}, "w", false);
    Attrs a;
    a.set("stride", static_cast<int64_t>(1));
    a.set("pad", static_cast<int64_t>(1));
    a.set("staticWeight", static_cast<int64_t>(1));
    int conv = g.add(OpKind::Conv2d, {x, w}, std::move(a));

    Tensor tx = Tensor::randn({1, 2, 8, 8}, rng);
    Tensor tw = Tensor::randn({2, 2, 3, 3}, rng, 0.3f);
    const Node &n = g.node(conv);
    Tensor out1(n.shape), out2(n.shape);
    KernelCtx ctx;
    ctx.node = &n;
    ctx.in = {tx.data(), tw.data()};
    ctx.inShapes = {&g.node(x).shape, &g.node(w).shape};
    ctx.outShape = &n.shape;
    DirectWorkspace ws;
    ws.attach(ctx, g, n, "winograd");
    KernelFn fn = lookupKernel(OpKind::Conv2d, "winograd");
    ctx.out = out1.data();
    fn(ctx);
    EXPECT_TRUE(ws.ready())
        << "transform should be cached after first call";
    // Corrupting the weight now must NOT change the output: the
    // cached transform is in use (this is only legal because the
    // backend-switch pass guarantees the weight is frozen).
    tw.fill(0.0f);
    ctx.out = out2.data();
    fn(ctx);
    EXPECT_TRUE(allClose(out1, out2));
}

TEST(SoftmaxKernel, StableUnderLargeLogits)
{
    Graph g;
    int x = g.input({1, 4}, "x");
    int sm = g.add(OpKind::Softmax, {x});
    Tensor tx = Tensor::fromVector({1, 4}, {1000, 1001, 999, 1000});
    Tensor out = runKernel(g, sm, {tx}, "");
    double sum = out.sum();
    EXPECT_NEAR(sum, 1.0, 1e-5);
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_TRUE(std::isfinite(out[i]));
    EXPECT_GT(out[1], out[0]);
}

TEST(CrossEntropyKernel, MatchesManualComputation)
{
    Graph g;
    int x = g.input({2, 3}, "x");
    int y = g.input({2}, "y");
    int ce = g.add(OpKind::CrossEntropy, {x, y});
    Tensor logits = Tensor::fromVector({2, 3}, {1, 2, 3, 0, 0, 0});
    Tensor labels = Tensor::fromVector({2}, {2, 0});
    const Node &n = g.node(ce);
    Tensor out({1});
    KernelCtx ctx;
    ctx.node = &n;
    ctx.in = {logits.data(), labels.data()};
    ctx.inShapes = {&g.node(x).shape, &g.node(y).shape};
    ctx.out = out.data();
    ctx.outShape = &n.shape;
    lookupKernel(OpKind::CrossEntropy, "")(ctx);
    // Row 0: lse(1,2,3) - 3; row 1: lse(0,0,0) - 0 = log 3.
    double lse0 = std::log(std::exp(1.0) + std::exp(2.0) + std::exp(3.0));
    double expected = ((lse0 - 3.0) + std::log(3.0)) / 2.0;
    EXPECT_NEAR(out[0], expected, 1e-5);
}

TEST(DepthwiseKernel, MatchesPerChannelConv)
{
    // Depthwise conv == per-channel 1-in/1-out standard conv.
    Rng rng(7);
    Graph g;
    int x = g.input({1, 3, 6, 6}, "x");
    int w = g.param({3, 1, 3, 3}, "w", false);
    Attrs a;
    a.set("stride", static_cast<int64_t>(1));
    a.set("pad", static_cast<int64_t>(1));
    int dw = g.add(OpKind::DwConv2d, {x, w}, std::move(a));
    Tensor tx = Tensor::randn({1, 3, 6, 6}, rng);
    Tensor tw = Tensor::randn({3, 1, 3, 3}, rng);
    Tensor got = runKernel(g, dw, {tx, tw}, "");

    for (int64_t c = 0; c < 3; ++c) {
        Graph g1;
        int x1 = g1.input({1, 1, 6, 6}, "x");
        int w1 = g1.param({1, 1, 3, 3}, "w", false);
        Attrs a1;
        a1.set("stride", static_cast<int64_t>(1));
        a1.set("pad", static_cast<int64_t>(1));
        int conv = g1.add(OpKind::Conv2d, {x1, w1}, std::move(a1));
        Tensor cx({1, 1, 6, 6}), cw({1, 1, 3, 3});
        for (int64_t i = 0; i < 36; ++i)
            cx[i] = tx[c * 36 + i];
        for (int64_t i = 0; i < 9; ++i)
            cw[i] = tw[c * 9 + i];
        Tensor ref = runKernel(g1, conv, {cx, cw}, "");
        for (int64_t i = 0; i < 36; ++i)
            EXPECT_NEAR(got[c * 36 + i], ref[i], 1e-4f) << "c=" << c;
    }
}

TEST(KernelRegistry, UnknownVariantFallsBackToDefault)
{
    detail::ensureKernelsRegistered();
    EXPECT_EQ(lookupKernel(OpKind::Add, "no-such-variant"),
              lookupKernel(OpKind::Add, ""));
    EXPECT_TRUE(hasKernelVariant(OpKind::Conv2d, "winograd"));
    EXPECT_FALSE(hasKernelVariant(OpKind::Add, "winograd"));
}

TEST(OptimApplyKernels, SgdSubRangeOffset)
{
    // Channel-sparse updates write only [offset, offset + grad.numel).
    Graph g;
    int p = g.param({8}, "p", true);
    int gr = g.input({4}, "g");
    Attrs a;
    a.set("lr", 1.0);
    a.set("offset", static_cast<int64_t>(0));
    int apply = g.add(OpKind::ApplySgd, {p, gr}, std::move(a));
    Tensor tp = Tensor::ones({8});
    Tensor tg = Tensor::ones({4});
    KernelCtx ctx;
    ctx.node = &g.node(apply);
    ctx.in = {tp.data(), tg.data()};
    ctx.inShapes = {&g.node(p).shape, &g.node(gr).shape};
    ctx.out = tp.data();
    ctx.outShape = &g.node(apply).shape;
    lookupKernel(OpKind::ApplySgd, "")(ctx);
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(tp[i], 0.0f);
    for (int i = 4; i < 8; ++i)
        EXPECT_FLOAT_EQ(tp[i], 1.0f);
}

TEST(ElementwiseKernels, ReluGradEqualsSelectLoopOnSpecialValues)
{
    // Every pairing of special values in x and dy: the kernel loads dy
    // whatever x's sign and selects, and must match the branchy loop
    // dx = x > 0 ? dy : 0 bit for bit (NaN payloads and -0 included).
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const std::vector<float> vals = {nan, -nan, 0.0f, -0.0f, inf, -inf,
                                     1.5f, -2.25f, 1e-40f, -1e-40f};
    int64_t n = static_cast<int64_t>(vals.size() * vals.size());
    Graph g;
    int x = g.input({n}, "x");
    int dy = g.input({n}, "dy");
    int node = g.add(OpKind::ReluGrad, {x, dy}, {});
    Tensor tx({n}), tdy({n});
    for (size_t i = 0; i < vals.size(); ++i)
        for (size_t j = 0; j < vals.size(); ++j) {
            tx[i * vals.size() + j] = vals[i];
            tdy[i * vals.size() + j] = vals[j];
        }
    Tensor got = runKernel(g, node, {tx, tdy}, "");
    for (int64_t i = 0; i < n; ++i) {
        float want = tx[i] > 0 ? tdy[i] : 0.0f;
        EXPECT_EQ(std::memcmp(&got[i], &want, sizeof(float)), 0)
            << "x " << tx[i] << " dy " << tdy[i];
    }
}

/** The reduction's earlier walk: per output slot, an odometer over
 *  every reduced dim, innermost fastest, one element at a time. */
Tensor
odometerReduce(const Tensor &x, const std::vector<int64_t> &axes,
               bool mean, const Shape &outShape)
{
    const Shape &xs = x.shape();
    std::vector<bool> reduced(xs.size(), false);
    int64_t count = 1;
    for (int64_t a : axes) {
        reduced[a] = true;
        count *= xs[a];
    }
    std::vector<int64_t> strides = rowMajorStrides(xs);
    std::vector<int64_t> kext, kstr, rext, rstr;
    for (size_t d = 0; d < xs.size(); ++d) {
        (reduced[d] ? rext : kext).push_back(xs[d]);
        (reduced[d] ? rstr : kstr).push_back(strides[d]);
    }
    std::vector<int64_t> ostr(kext.size(), 1);
    for (size_t d = kext.size(); d-- > 1;)
        ostr[d - 1] = ostr[d] * kext[d];
    Tensor out(outShape);
    for (int64_t oi = 0; oi < out.size(); ++oi) {
        int64_t rem = oi, base = 0;
        for (size_t d = 0; d < kext.size(); ++d) {
            base += rem / ostr[d] * kstr[d];
            rem %= ostr[d];
        }
        std::vector<int64_t> coord(rext.size(), 0);
        float acc = 0;
        int64_t off = 0;
        for (;;) {
            acc += x[base + off];
            size_t d = rext.size();
            while (d-- > 0) {
                off += rstr[d];
                if (++coord[d] < rext[d])
                    break;
                off -= coord[d] * rstr[d];
                coord[d] = 0;
            }
            if (d == static_cast<size_t>(-1))
                break;
        }
        out[oi] = mean ? acc * (1.0f / static_cast<float>(count)) : acc;
    }
    return out;
}

TEST(ReduceKernels, ContiguousRunEqualsOdometerWalk)
{
    // The innermost reduced dims are walked as one contiguous run (the
    // bias gradient over NCHW axes {0, 2, 3} among them); every axis
    // set must still sum the same elements in the same order.
    struct Case {
        Shape x;
        std::vector<int64_t> axes;
    };
    const std::vector<Case> cases = {
        {{8, 288, 2, 2}, {0, 2, 3}}, {{3, 5, 4, 6}, {0, 2, 3}},
        {{3, 5, 4, 6}, {3}},         {{3, 5, 4, 6}, {2, 3}},
        {{3, 5, 4, 6}, {1, 3}},      {{3, 5, 4, 6}, {0}},
        {{3, 5, 4, 6}, {0, 1}},      {{3, 5, 4, 6}, {0, 1, 2, 3}},
        {{7, 15}, {1}},              {{7, 15}, {0}},
        {{4, 9, 5}, {0, 2}},         {{4, 9, 5}, {1}}};
    Rng rng(31);
    for (const Case &cs : cases) {
        Graph g;
        int x = g.input(cs.x, "x");
        Tensor tx = Tensor::randn(cs.x, rng);
        for (OpKind op : {OpKind::ReduceSum, OpKind::ReduceMean}) {
            Attrs a;
            a.set("axes", cs.axes);
            int node = g.add(op, {x}, std::move(a));
            Tensor want = odometerReduce(tx, cs.axes,
                                         op == OpKind::ReduceMean,
                                         g.node(node).shape);
            Tensor got = runKernel(g, node, {tx}, "");
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  sizeof(float) * got.size()),
                      0)
                << opName(op) << " of " << shapeToString(cs.x);
        }
    }
}

} // namespace
} // namespace pe
