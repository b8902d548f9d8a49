/**
 * @file
 * Quantized-execution tests.
 *
 * Layers of guarantees, mirroring the subsystem's structure:
 *  1. Quant math: parameter choice, code round-trips, f16 casts.
 *  2. Kernels: the integer kernels match the dequant->fp32->requant
 *     reference (refQuant, the parity oracle kept in this file) within
 *     one output quantum; elementwise requant semantics are exact.
 *  3. Calibration: observers stamp sound ranges; moving-average
 *     differs from min/max under outliers.
 *  4. QuantizePass: forward region rewritten, backward stays fp32,
 *     Dequantize->Quantize chains fold, outputs dequantized.
 *  5. End-to-end McuNet: int8 forward top-1 agreement >= 99% vs
 *     fp32, sparse-BP fine-tuning on the quantized forward decreases
 *     loss, numThreads=4 is bit-identical to numThreads=1, and the
 *     deployed int8 footprint is <= 0.35x of fp32 (f16 in between).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "data/synthetic.h"
#include "engine/engine.h"
#include "frontend/builder.h"
#include "frontend/models.h"
#include "kernels/kernel.h"
#include "kernels/kernel_util.h"
#include "quant/quant.h"
#include "testutil.h"

namespace pe {
namespace {

using test::Feeds;

// ---- helpers ---------------------------------------------------------

/** Byte buffer usable as a KernelCtx float* while holding i8 codes. */
struct I8Buf {
    std::vector<float> storage;

    explicit I8Buf(int64_t n) : storage(static_cast<size_t>((n + 3) / 4 + 1), 0.0f) {}

    int8_t *data() { return reinterpret_cast<int8_t *>(storage.data()); }
    const float *asF32() const { return storage.data(); }
    float *asF32Mut() { return storage.data(); }
};

/** Quantize a float tensor into codes with the given params. */
void
quantizeInto(const Tensor &t, float scale, int32_t zp, I8Buf &out)
{
    for (int64_t i = 0; i < t.size(); ++i)
        out.data()[i] = quantizeValue(t[i], scale, zp);
}

/** Per-channel symmetric weight quantization along @p axis. */
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

/** Max |a - b| over decoded i8 outputs, in CODES. */
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

/**
 * The dequant->fp32->requant parity oracle for the quant compute ops
 * (QuantMatMul, QuantConv2d, QuantDwConv2d), called directly on a
 * bound ctx: dequantize the activation and weight, run the op's fp32
 * kernel, requantize the result. The integer kernels must stay within
 * one output code of it.
 */
void
refQuant(const Graph &g, const KernelCtx &c)
{
    const Node &n = *c.node;
    kutil::Requant rq = kutil::requantOf(c);
    std::vector<float> fx(static_cast<size_t>(numel(*c.inShapes[0])));
    std::vector<float> fw(static_cast<size_t>(numel(*c.inShapes[1])));
    std::vector<float> fy(static_cast<size_t>(numel(*c.outShape)));
    const int8_t *qx = reinterpret_cast<const int8_t *>(c.in[0]);
    for (size_t i = 0; i < fx.size(); ++i)
        fx[i] = dequantizeValue(qx[i], rq.xScale, rq.xZp);
    // Per-channel weight scales run along the output-channel axis:
    // dim 1 of a [K, N] matmul weight, dim 0 otherwise.
    bool kn = n.op == OpKind::QuantMatMul &&
              n.attrs.getInt("transB", 0) == 0;
    kutil::AxisView av = kutil::axisView(*c.inShapes[1], kn ? 1 : 0);
    const int8_t *qw = reinterpret_cast<const int8_t *>(c.in[1]);
    for (size_t i = 0; i < fw.size(); ++i) {
        float sw = rq.wScales
                       ? rq.wScales[av.channelOf(static_cast<int64_t>(i))]
                       : rq.wScale;
        fw[i] = dequantizeValue(qw[i], sw, 0);
    }

    bool has_bias = rq.bias != nullptr;
    Node proxy = n; // attrs (stride/pad/transB/act) pass through
    switch (n.op) {
      case OpKind::QuantMatMul:
        proxy.op = has_bias ? OpKind::MatMulBiasAct : OpKind::MatMul;
        break;
      case OpKind::QuantConv2d:
        proxy.op = has_bias ? OpKind::ConvBiasAct : OpKind::Conv2d;
        break;
      default:
        proxy.op = has_bias ? OpKind::DwConvBiasAct : OpKind::DwConv2d;
        break;
    }
    KernelCtx sub;
    sub.node = &proxy;
    sub.in = {fx.data(), fw.data()};
    sub.inShapes = {c.inShapes[0], c.inShapes[1]};
    if (has_bias) {
        sub.in.push_back(rq.bias);
        sub.inShapes.push_back(c.inShapes[2]);
    }
    sub.out = fy.data();
    sub.outShape = c.outShape;
    DirectWorkspace ws;
    ws.attach(sub, g, proxy);
    lookupKernel(proxy.op)(sub);

    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    for (size_t i = 0; i < fy.size(); ++i)
        out[i] = quantizeValue(fy[i], rq.yScale, rq.yZp);
}

// ---- 1. quant math ---------------------------------------------------

TEST(QuantMath, ChooseParamsCoversRangeAndZero)
{
    QuantParams p = chooseQuantParams(-1.5f, 3.0f);
    EXPECT_NEAR(p.scale, 4.5f / 255.0f, 1e-6f);
    // Zero must be exactly representable.
    float zero = dequantizeValue(
        quantizeValue(0.0f, p.scale, p.zeroPoint), p.scale, p.zeroPoint);
    EXPECT_EQ(zero, 0.0f);
    // All-positive ranges widen to include zero (ReLU outputs).
    QuantParams q = chooseQuantParams(0.5f, 2.0f);
    EXPECT_EQ(q.zeroPoint, -128);
}

TEST(QuantMath, RoundTripWithinHalfQuantum)
{
    QuantParams p = chooseQuantParams(-2.0f, 2.0f);
    Rng rng(3);
    Tensor t = Tensor::uniform({1000}, rng, -2.0f, 2.0f);
    for (int64_t i = 0; i < t.size(); ++i) {
        float r = dequantizeValue(quantizeValue(t[i], p.scale, p.zeroPoint),
                                  p.scale, p.zeroPoint);
        EXPECT_LE(std::fabs(r - t[i]), p.scale * 0.5f + 1e-7f);
    }
}

TEST(QuantMath, HalfRoundTrip)
{
    // Exactly-representable halves survive unchanged.
    for (float v : {0.0f, 1.0f, -2.5f, 0.09375f, 65504.0f})
        EXPECT_EQ(halfToFloat(floatToHalf(v)), v);
    // Arbitrary values round within half-precision epsilon.
    Rng rng(4);
    Tensor t = Tensor::uniform({1000}, rng, -100.0f, 100.0f);
    for (int64_t i = 0; i < t.size(); ++i) {
        float r = halfToFloat(floatToHalf(t[i]));
        EXPECT_LE(std::fabs(r - t[i]),
                  std::fabs(t[i]) * (1.0f / 1024.0f) + 1e-6f);
    }
    // Subnormal and overflow behavior.
    EXPECT_EQ(halfToFloat(floatToHalf(1e-8f)), 0.0f);
    EXPECT_TRUE(std::isinf(halfToFloat(floatToHalf(1e6f))));
}

// ---- 2. kernels ------------------------------------------------------

/** Build a QuantMatMul node and run a variant on given i8 operands. */
struct QMatmulFixture {
    Graph g;
    int node;
    int64_t m = 12, k = 24, n = 10;
    Tensor a, w, bias;
    I8Buf qa{m * k}, qw{k * n}, out{m * n};
    std::vector<float> wscales;
    QuantParams ap, yp;
    DirectWorkspace ws;

    QMatmulFixture(bool with_bias, int64_t act)
    {
        Rng rng(7);
        a = Tensor::uniform({m, k}, rng, -1.0f, 1.0f);
        w = Tensor::uniform({k, n}, rng, -0.8f, 0.8f);
        bias = Tensor::uniform({n}, rng, -0.5f, 0.5f);
        ap = chooseQuantParams(-1.0f, 1.0f);
        yp = chooseQuantParams(-6.0f, 6.0f);
        quantizeInto(a, ap.scale, ap.zeroPoint, qa);
        wscales = quantizeWeight(w, 1, qw);

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
        node = g.add(OpKind::QuantMatMul, inputs, std::move(at));
    }

    KernelCtx
    ctx(I8Buf &dst) const
    {
        const Node &nd = g.node(node);
        KernelCtx c;
        c.node = &nd;
        c.in = {qa.asF32(), qw.asF32()};
        c.inShapes = {&g.node(nd.inputs[0]).shape,
                      &g.node(nd.inputs[1]).shape};
        if (nd.attrs.getInt("hasBias", 0)) {
            c.in.push_back(bias.data());
            c.inShapes.push_back(&g.node(nd.inputs[2]).shape);
        }
        c.in.push_back(wscales.data());
        c.inShapes.push_back(
            &g.node(nd.inputs[nd.inputs.size() - 1]).shape);
        c.out = dst.asF32Mut();
        c.outShape = &nd.shape;
        return c;
    }

    void
    run(const std::string &variant, I8Buf &dst)
    {
        KernelCtx c = ctx(dst);
        ws.attach(c, g, g.node(node), variant);
        lookupKernel(OpKind::QuantMatMul, variant)(c);
    }

    /** Float reference on the DEQUANTIZED operands. */
    float
    ref(int64_t i, int64_t j) const
    {
        float acc = 0;
        for (int64_t kk = 0; kk < k; ++kk) {
            acc += dequantizeValue(
                       reinterpret_cast<const int8_t *>(
                           qa.asF32())[i * k + kk],
                       ap.scale, ap.zeroPoint) *
                   dequantizeValue(
                       reinterpret_cast<const int8_t *>(
                           qw.asF32())[kk * n + j],
                       wscales[j], 0);
        }
        return acc;
    }
};

TEST(QuantKernels, Int8GemmMatchesDequantReference)
{
    for (bool with_bias : {false, true}) {
        QMatmulFixture f(with_bias, with_bias ? kActRelu : kActNone);
        I8Buf fast(f.m * f.n), slow(f.m * f.n);
        f.run("", fast);
        refQuant(f.g, f.ctx(slow));
        // Same math, different rounding paths: within one code.
        EXPECT_LE(maxCodeDiff(fast, slow, f.m * f.n), 1);
        // And against an explicit float reference within one quantum.
        const int8_t *q = reinterpret_cast<const int8_t *>(fast.asF32());
        for (int64_t i = 0; i < f.m; ++i) {
            for (int64_t j = 0; j < f.n; ++j) {
                float r = f.ref(i, j);
                if (with_bias)
                    r += f.bias[j];
                if (f.g.node(f.node).attrs.getInt("act", 0) == kActRelu)
                    r = r > 0 ? r : 0;
                r = std::min(r, (127 - f.yp.zeroPoint) * f.yp.scale);
                r = std::max(r, (-128 - f.yp.zeroPoint) * f.yp.scale);
                float got = dequantizeValue(q[i * f.n + j], f.yp.scale,
                                            f.yp.zeroPoint);
                EXPECT_LE(std::fabs(got - r), f.yp.scale * 1.01f)
                    << "at (" << i << "," << j << ")";
            }
        }
    }
}

TEST(QuantKernels, Int8GemmShardsAreBitIdentical)
{
    QMatmulFixture f(true, kActRelu);
    I8Buf full(f.m * f.n), sharded(f.m * f.n);
    f.run("", full);
    // Replay the same kernel over explicit row shards.
    const Node &nd = f.g.node(f.node);
    KernelCtx c;
    c.node = &nd;
    c.in = {f.qa.asF32(), f.qw.asF32(), f.bias.data(), f.wscales.data()};
    c.inShapes = {&f.g.node(nd.inputs[0]).shape,
                  &f.g.node(nd.inputs[1]).shape,
                  &f.g.node(nd.inputs[2]).shape,
                  &f.g.node(nd.inputs[3]).shape};
    c.out = sharded.asF32Mut();
    c.outShape = &nd.shape;
    DirectWorkspace ws;
    for (int64_t b = 0; b < f.m; b += 5) {
        c.begin = b;
        c.end = std::min(b + 5, f.m);
        ws.attach(c, f.g, nd);
        lookupKernel(OpKind::QuantMatMul)(c);
    }
    EXPECT_EQ(maxCodeDiff(full, sharded, f.m * f.n), 0);
}

TEST(QuantKernels, Int8ConvMatchesDequantReference)
{
    Rng rng(11);
    int64_t N = 2, Ci = 3, H = 8, W = 8, Co = 4, K = 3;
    Tensor x = Tensor::uniform({N, Ci, H, W}, rng, -1.0f, 1.0f);
    Tensor w = Tensor::uniform({Co, Ci, K, K}, rng, -0.6f, 0.6f);
    Tensor bias = Tensor::uniform({Co, 1, 1}, rng, -0.3f, 0.3f);
    QuantParams xp = chooseQuantParams(-1.0f, 1.0f);
    QuantParams yp = chooseQuantParams(-4.0f, 4.0f);
    I8Buf qx(x.size()), qw(w.size());
    quantizeInto(x, xp.scale, xp.zeroPoint, qx);
    std::vector<float> wscales = quantizeWeight(w, 0, qw);

    Graph g;
    int ix = g.input({N, Ci, H, W}, "x");
    int iw = g.input({Co, Ci, K, K}, "w");
    int ib = g.input({Co, 1, 1}, "b");
    int is = g.input({Co}, "s");
    Attrs at;
    at.set("stride", static_cast<int64_t>(1));
    at.set("pad", static_cast<int64_t>(1));
    at.set("act", static_cast<int64_t>(kActRelu));
    at.set("hasBias", static_cast<int64_t>(1));
    at.set("perChannel", static_cast<int64_t>(1));
    at.set("xScale", static_cast<double>(xp.scale));
    at.set("xZp", static_cast<int64_t>(xp.zeroPoint));
    at.set("yScale", static_cast<double>(yp.scale));
    at.set("yZp", static_cast<int64_t>(yp.zeroPoint));
    int node = g.add(OpKind::QuantConv2d, {ix, iw, ib, is},
                     std::move(at));
    const Node &nd = g.node(node);

    auto ctx = [&](I8Buf &dst) {
        KernelCtx c;
        c.node = &nd;
        c.in = {qx.asF32(), qw.asF32(), bias.data(), wscales.data()};
        c.inShapes = {&g.node(ix).shape, &g.node(iw).shape,
                      &g.node(ib).shape, &g.node(is).shape};
        c.out = dst.asF32Mut();
        c.outShape = &nd.shape;
        return c;
    };
    int64_t out_n = numel(nd.shape);
    I8Buf fast(out_n), slow(out_n);
    {
        KernelCtx c = ctx(fast);
        DirectWorkspace ws;
        ws.attach(c, g, nd);
        lookupKernel(OpKind::QuantConv2d)(c);
    }
    refQuant(g, ctx(slow));
    EXPECT_LE(maxCodeDiff(fast, slow, out_n), 1);

    // Per-image shards replay bit-identically.
    I8Buf sharded(out_n);
    KernelCtx c;
    c.node = &nd;
    c.in = {qx.asF32(), qw.asF32(), bias.data(), wscales.data()};
    c.inShapes = {&g.node(ix).shape, &g.node(iw).shape,
                  &g.node(ib).shape, &g.node(is).shape};
    c.out = sharded.asF32Mut();
    c.outShape = &nd.shape;
    DirectWorkspace ws;
    for (int64_t img = 0; img < N; ++img) {
        c.begin = img;
        c.end = img + 1;
        ws.attach(c, g, nd);
        lookupKernel(OpKind::QuantConv2d)(c);
    }
    EXPECT_EQ(maxCodeDiff(fast, sharded, out_n), 0);
}

TEST(QuantKernels, Int8DepthwiseMatchesDequantReference)
{
    // The native int8 depthwise kernel vs the dequant->fp32->requant
    // reference: same math, different rounding path.
    Rng rng(105);
    int64_t N = 2, Ch = 6, HW = 10, K = 3;
    Tensor x = Tensor::uniform({N, Ch, HW, HW}, rng, -1.0f, 1.0f);
    Tensor w = Tensor::uniform({Ch, 1, K, K}, rng, -0.6f, 0.6f);
    Tensor bias = Tensor::uniform({Ch, 1, 1}, rng, -0.3f, 0.3f);
    QuantParams xp = chooseQuantParams(-1.0f, 1.0f);
    QuantParams yp = chooseQuantParams(-3.0f, 3.0f);
    I8Buf qx(x.size()), qw(w.size());
    quantizeInto(x, xp.scale, xp.zeroPoint, qx);
    std::vector<float> wscales = quantizeWeight(w, 0, qw);

    Graph g;
    int ix = g.input({N, Ch, HW, HW}, "x");
    int iw = g.input({Ch, 1, K, K}, "w");
    int ib = g.input({Ch, 1, 1}, "b");
    int is = g.input({Ch}, "s");
    Attrs at;
    at.set("stride", static_cast<int64_t>(1));
    at.set("pad", static_cast<int64_t>(1));
    at.set("act", static_cast<int64_t>(kActRelu));
    at.set("hasBias", static_cast<int64_t>(1));
    at.set("perChannel", static_cast<int64_t>(1));
    at.set("xScale", static_cast<double>(xp.scale));
    at.set("xZp", static_cast<int64_t>(xp.zeroPoint));
    at.set("yScale", static_cast<double>(yp.scale));
    at.set("yZp", static_cast<int64_t>(yp.zeroPoint));
    int node =
        g.add(OpKind::QuantDwConv2d, {ix, iw, ib, is}, std::move(at));
    const Node &nd = g.node(node);
    int64_t out_n = numel(nd.shape);

    auto ctx = [&](I8Buf &dst) {
        KernelCtx c;
        c.node = &nd;
        c.in = {qx.asF32(), qw.asF32(), bias.data(), wscales.data()};
        c.inShapes = {&g.node(ix).shape, &g.node(iw).shape,
                      &g.node(ib).shape, &g.node(is).shape};
        c.out = dst.asF32Mut();
        c.outShape = &nd.shape;
        return c;
    };
    I8Buf native(out_n), reference(out_n);
    lookupKernel(OpKind::QuantDwConv2d)(ctx(native));
    refQuant(g, ctx(reference));
    EXPECT_LE(maxCodeDiff(native, reference, out_n), 1);
}

TEST(QuantKernels, AddAndReluRequantExactly)
{
    Graph g;
    int ia = g.input({32}, "a");
    int ib = g.input({32}, "b");
    QuantParams ap = chooseQuantParams(-1.0f, 1.0f);
    QuantParams bp = chooseQuantParams(-2.0f, 2.0f);
    QuantParams yp = chooseQuantParams(-3.0f, 3.0f);
    Attrs at;
    at.set("xScale", static_cast<double>(ap.scale));
    at.set("xZp", static_cast<int64_t>(ap.zeroPoint));
    at.set("bScale", static_cast<double>(bp.scale));
    at.set("bZp", static_cast<int64_t>(bp.zeroPoint));
    at.set("yScale", static_cast<double>(yp.scale));
    at.set("yZp", static_cast<int64_t>(yp.zeroPoint));
    int add = g.add(OpKind::QuantAdd, {ia, ib}, at);

    Rng rng(5);
    Tensor a = Tensor::uniform({32}, rng, -1.0f, 1.0f);
    Tensor b = Tensor::uniform({32}, rng, -2.0f, 2.0f);
    I8Buf qa(32), qb(32), out(32);
    quantizeInto(a, ap.scale, ap.zeroPoint, qa);
    quantizeInto(b, bp.scale, bp.zeroPoint, qb);

    KernelCtx c;
    const Node &nd = g.node(add);
    c.node = &nd;
    c.in = {qa.asF32(), qb.asF32()};
    c.inShapes = {&g.node(ia).shape, &g.node(ib).shape};
    c.out = out.asF32Mut();
    c.outShape = &nd.shape;
    lookupKernel(OpKind::QuantAdd)(c);
    const int8_t *q = reinterpret_cast<const int8_t *>(out.asF32());
    for (int64_t i = 0; i < 32; ++i) {
        float want = dequantizeValue(
            quantizeValue(
                dequantizeValue(
                    reinterpret_cast<const int8_t *>(qa.asF32())[i],
                    ap.scale, ap.zeroPoint) +
                    dequantizeValue(
                        reinterpret_cast<const int8_t *>(qb.asF32())[i],
                        bp.scale, bp.zeroPoint),
                yp.scale, yp.zeroPoint),
            yp.scale, yp.zeroPoint);
        float got =
            dequantizeValue(q[i], yp.scale, yp.zeroPoint);
        EXPECT_EQ(got, want);
    }

    // Relu: codes below the zero image clamp to it exactly.
    Attrs rt;
    rt.set("xScale", static_cast<double>(ap.scale));
    rt.set("xZp", static_cast<int64_t>(ap.zeroPoint));
    rt.set("yScale", static_cast<double>(ap.scale));
    rt.set("yZp", static_cast<int64_t>(ap.zeroPoint));
    int relu = g.add(OpKind::QuantRelu, {ia}, rt);
    const Node &rn = g.node(relu);
    I8Buf rout(32);
    KernelCtx rc;
    rc.node = &rn;
    rc.in = {qa.asF32()};
    rc.inShapes = {&g.node(ia).shape};
    rc.out = rout.asF32Mut();
    rc.outShape = &rn.shape;
    lookupKernel(OpKind::QuantRelu)(rc);
    const int8_t *r = reinterpret_cast<const int8_t *>(rout.asF32());
    for (int64_t i = 0; i < 32; ++i) {
        float v = dequantizeValue(
            reinterpret_cast<const int8_t *>(qa.asF32())[i], ap.scale,
            ap.zeroPoint);
        float want = v > 0 ? v : 0.0f;
        EXPECT_NEAR(dequantizeValue(r[i], ap.scale, ap.zeroPoint), want,
                    ap.scale * 0.51f);
    }
}

// ---- 3. calibration --------------------------------------------------

TEST(Calibration, StampsObservedRanges)
{
    Graph g;
    Rng rng(9);
    ParamStore store;
    NetBuilder b(g, rng, &store);
    int x = b.input({4, 8}, "x");
    int h = b.relu(b.linear(x, 16, "fc1"));
    int y = b.linear(h, 4, "fc2");
    g.markOutput(y);

    std::vector<Feeds> batches;
    Rng drng(10);
    for (int i = 0; i < 3; ++i)
        batches.push_back(
            {{"x", Tensor::uniform({4, 8}, drng, -1.0f, 1.0f)}});
    int stamped = calibrate(g, store, batches);
    EXPECT_EQ(stamped, g.numNodes());
    // The relu output's range must be non-negative and non-trivial.
    const Node &rn = g.node(h);
    EXPECT_TRUE(rn.attrs.has(kCalibMinAttr));
    EXPECT_GE(rn.attrs.getFloat(kCalibMinAttr, -1.0), 0.0);
    EXPECT_GT(rn.attrs.getFloat(kCalibMaxAttr, 0.0), 0.0);
    // Input range reflects the fed data.
    EXPECT_LE(g.node(x).attrs.getFloat(kCalibMinAttr, 0.0), -0.8);
    EXPECT_GE(g.node(x).attrs.getFloat(kCalibMaxAttr, 0.0), 0.8);
}

TEST(Calibration, MovingAverageDampensOutliers)
{
    Graph g;
    int x = g.input({4}, "x");
    g.markOutput(x);
    ParamStore store;
    std::vector<Feeds> batches;
    // One outlier batch among small ones.
    batches.push_back({{"x", Tensor::full({4}, 1.0f)}});
    batches.push_back({{"x", Tensor::full({4}, 100.0f)}});
    batches.push_back({{"x", Tensor::full({4}, 1.0f)}});
    CalibrationOptions mm;
    mm.observer = ObserverKind::MinMax;
    auto rmm = observeRanges(g, store, batches, mm);
    CalibrationOptions ma;
    ma.observer = ObserverKind::MovingAverage;
    ma.momentum = 0.7;
    auto rma = observeRanges(g, store, batches, ma);
    EXPECT_EQ(rmm[x].mx, 100.0f);
    EXPECT_LT(rma[x].mx, 50.0f); // outlier damped
    EXPECT_GT(rma[x].mx, 1.0f);  // but not ignored
}

// ---- 4. QuantizePass -------------------------------------------------

/** A small trained+calibrated McuNet shared by the e2e tests. */
struct McuNetFixture {
    std::shared_ptr<ParamStore> store = std::make_shared<ParamStore>();
    ModelSpec m;
    /** Low-noise 4-class task: margins must clear quantization noise
     *  for the top-1 agreement bound to be meaningful. */
    SyntheticVision task{123, 4, 3, 16, 0.12f};
    Rng rng{42};

    McuNetFixture()
    {
        VisionConfig cfg;
        cfg.batch = 8;
        cfg.resolution = 16;
        cfg.numClasses = 4;
        cfg.width = 0.5;
        cfg.blocks = 3;
        m = buildMcuNet(cfg, rng, store.get());

        // Train briefly in fp32 so logits separate, then calibrate.
        // (lr chosen for stability: full-BP SGD on this net diverges
        // above ~5e-3; the fixture asserts it stayed finite so no
        // downstream test can "pass" on NaN weights.)
        CompileOptions topt;
        topt.optim = OptimConfig::sgd(0.002);
        TrainingProgram prog = compileTraining(
            m.graph, m.loss, SparseUpdateScheme::full(), topt, store);
        float first = 0, last = 0;
        for (int i = 0; i < 120; ++i) {
            Batch b = task.sample(8, rng);
            last = prog.trainStep({{"x", b.x}, {"y", b.y}});
            if (i == 0)
                first = last;
        }
        EXPECT_TRUE(std::isfinite(last));
        EXPECT_LT(last, first);
        std::vector<Feeds> calib;
        for (int i = 0; i < 4; ++i)
            calib.push_back({{"x", task.sample(8, rng).x}});
        calibrate(m.graph, *store, calib);
    }
};

TEST(QuantizePass, RewritesForwardKeepsBackwardF32)
{
    McuNetFixture f;
    CompileOptions opt;
    opt.precision = Precision::Int8;
    CompiledGraph c =
        compileGraphOnly(f.m.graph, f.m.loss, cnnSparseScheme(f.m, 2, 1),
                         opt, f.store.get());
    EXPECT_GT(c.report.quant.quantizedOps, 0);
    EXPECT_GT(c.report.quant.dequantizeNodes, 0);
    EXPECT_EQ(c.report.precision, Precision::Int8);

    // Backward ops never consume i8 directly and are never quantized.
    for (const Node &n : c.graph.nodes()) {
        switch (n.op) {
          case OpKind::Conv2dBwdInput:
          case OpKind::Conv2dBwdWeight:
          case OpKind::DwConv2dBwdInput:
          case OpKind::DwConv2dBwdWeight:
          case OpKind::ReluGrad:
          case OpKind::CrossEntropyGrad:
            EXPECT_EQ(n.dtype, DType::F32);
            for (int in : n.inputs)
                EXPECT_NE(c.graph.node(in).dtype, DType::I8)
                    << "backward op reads raw i8";
            break;
          default:
            break;
        }
    }
    // The i8 activation footprint is real and planned.
    EXPECT_GT(c.report.arenaBytesByDtype[static_cast<int>(DType::I8)], 0);
    // Every quant compute op — including depthwise — now has a native
    // int8 kernel, so an MCUNet-style int8 compile must report zero
    // dequant->fp32->requant fallbacks.
    for (const std::string &s : c.report.fallbackKernels)
        EXPECT_EQ(s.find("QuantDwConv2d"), std::string::npos)
            << "native int8 depthwise regressed to fallback: " << s;
    EXPECT_EQ(c.report.kernelFallbacks, 0);
    EXPECT_TRUE(c.report.fallbackBreakdown().empty());
}

TEST(QuantizePass, FoldsDequantQuantChains)
{
    // Hand-build qx -> Dequantize -> MatMul(weight) with calibration
    // attrs; the pass must reuse/requantize the stored i8 value
    // instead of inserting Dequantize->Quantize.
    Graph g;
    Rng rng(13);
    ParamStore store;
    int x = g.input({4, 8}, "x");
    QuantParams xp = chooseQuantParams(-1.0f, 1.0f);
    Attrs qa;
    qa.set("dtype", std::string("i8"));
    qa.set("yScale", static_cast<double>(xp.scale));
    qa.set("yZp", static_cast<int64_t>(xp.zeroPoint));
    int q = g.add(OpKind::Quantize, {x}, std::move(qa));
    Attrs dqa;
    dqa.set("dtype", std::string("i8"));
    dqa.set("xScale", static_cast<double>(xp.scale));
    dqa.set("xZp", static_cast<int64_t>(xp.zeroPoint));
    int dq = g.add(OpKind::Dequantize, {q}, std::move(dqa));
    int w = g.param({8, 4}, "w");
    store.set("w", Tensor::randn({8, 4}, rng, 0.3f));
    int mm = g.add(OpKind::MatMul, {dq, w});
    g.markOutput(mm);
    // Stamp calibration so dq and mm are quantizable; dq's range maps
    // to exactly the params the stored value already has.
    g.node(dq).attrs.set(kCalibMinAttr, -128.0 * xp.scale -
                                            xp.zeroPoint * xp.scale);
    g.node(dq).attrs.set(kCalibMaxAttr,
                         (127.0 - xp.zeroPoint) * xp.scale);
    g.node(mm).attrs.set(kCalibMinAttr, -2.0);
    g.node(mm).attrs.set(kCalibMaxAttr, 2.0);

    QuantizeOptions qo;
    qo.store = &store;
    QuantizeStats stats;
    quantizePass(g, qo, &stats);
    EXPECT_EQ(stats.requantFolded, 1);
    // The rewritten matmul reads the ORIGINAL stored i8 value (the
    // params match, so not even a Requantize is needed) — the
    // Dequantize->Quantize chain never materializes.
    const Node &qmm = g.node(mm);
    ASSERT_EQ(qmm.op, OpKind::QuantMatMul);
    EXPECT_EQ(qmm.inputs[0], q);
    EXPECT_EQ(stats.quantizeNodes, 1); // only the weight quantize
}

// ---- 5. end-to-end ---------------------------------------------------

TEST(QuantEndToEnd, McuNetTop1AgreementAtLeast99Percent)
{
    McuNetFixture f;
    CompileOptions fopt;
    InferenceProgram fp32 =
        compileInference(f.m.graph, {f.m.logits}, fopt, f.store);
    CompileOptions qopt;
    qopt.precision = Precision::Int8;
    InferenceProgram int8 =
        compileInference(f.m.graph, {f.m.logits}, qopt, f.store);

    int agree = 0, total = 0;
    for (int batch = 0; batch < 16; ++batch) {
        Batch b = f.task.sample(8, f.rng);
        Tensor lf = fp32.run({{"x", b.x}})[0];
        Tensor lq = int8.run({{"x", b.x}})[0];
        int64_t classes = lf.dim(1);
        for (int64_t i = 0; i < lf.dim(0); ++i) {
            auto argmax = [&](const Tensor &t) {
                int64_t best = 0;
                for (int64_t c = 1; c < classes; ++c) {
                    if (t[i * classes + c] > t[i * classes + best])
                        best = c;
                }
                return best;
            };
            agree += argmax(lf) == argmax(lq) ? 1 : 0;
            ++total;
        }
    }
    EXPECT_GE(agree, static_cast<int>(std::ceil(0.99 * total)))
        << agree << "/" << total;
}

TEST(QuantEndToEnd, SparseBpFineTuningOnQuantizedForwardDecreasesLoss)
{
    McuNetFixture f;
    // Fine-tune on a SHIFTED downstream task, sparse scheme, int8
    // forward — the paper's deployment scenario.
    SyntheticVision downstream = SyntheticVision::task("cars", 3, 16);
    CompileOptions opt;
    opt.precision = Precision::Int8;
    opt.optim = OptimConfig::sgd(0.005);
    TrainingProgram prog =
        compileTraining(f.m.graph, f.m.loss, cnnSparseScheme(f.m, 2, 1),
                        opt, f.store);
    Rng drng(77);
    Batch b = downstream.sample(8, drng);
    std::vector<float> losses;
    for (int i = 0; i < 10; ++i)
        losses.push_back(prog.trainStep({{"x", b.x}, {"y", b.y}}));
    EXPECT_LT(losses.back(), losses.front())
        << "first " << losses.front() << " last " << losses.back();
}

TEST(QuantEndToEnd, FourThreadsBitIdenticalToOne)
{
    McuNetFixture f;
    CompileOptions o1;
    o1.precision = Precision::Int8;
    o1.numThreads = 1;
    CompileOptions o4 = o1;
    o4.numThreads = 4;
    InferenceProgram p1 =
        compileInference(f.m.graph, {f.m.logits}, o1, f.store);
    InferenceProgram p4 =
        compileInference(f.m.graph, {f.m.logits}, o4, f.store);
    EXPECT_GT(p4.executor().shardedSteps(), 0);
    for (int batch = 0; batch < 3; ++batch) {
        Batch b = f.task.sample(8, f.rng);
        Tensor l1 = p1.run({{"x", b.x}})[0];
        Tensor l4 = p4.run({{"x", b.x}})[0];
        EXPECT_EQ(maxAbsDiff(l1, l4), 0.0f); // bit-identical
    }
}

TEST(QuantEndToEnd, DeployedInt8FootprintAtMost35PercentOfF32)
{
    McuNetFixture f;
    CompileOptions fopt;
    InferenceProgram fp32 =
        compileInference(f.m.graph, {f.m.logits}, fopt, f.store);
    CompileOptions qopt;
    qopt.precision = Precision::Int8;
    InferenceProgram int8 =
        compileInference(f.m.graph, {f.m.logits}, qopt, f.store);

    const CompileReport &rf = fp32.report();
    const CompileReport &rq = int8.report();
    // Activation + weight footprint: planned arena VALUE bytes (by
    // dtype; kernel workspaces are scratch, reported separately as in
    // every Table-4 row since Arena v2) plus weights (params +
    // consts). The i8 compile pre-quantizes frozen weights into i8
    // consts, so its fp32 params drop to the untouched biases.
    int64_t f32_fp = rf.actWeightBytes();
    int64_t i8_fp = rq.actWeightBytes();
    EXPECT_GT(rq.quant.prequantizedWeights, 0);
    EXPECT_GT(rq.constBytesByDtype[static_cast<int>(DType::I8)], 0);
    // The fp32 masters really dropped out of the deployed program.
    EXPECT_LT(rq.paramBytes, rf.paramBytes / 4);
    EXPECT_LE(static_cast<double>(i8_fp),
              0.35 * static_cast<double>(f32_fp))
        << "int8 " << i8_fp << " fp32 " << f32_fp;
}

TEST(QuantEndToEnd, F16ModeIsCloseAndSmaller)
{
    McuNetFixture f;
    CompileOptions fopt;
    InferenceProgram fp32 =
        compileInference(f.m.graph, {f.m.logits}, fopt, f.store);
    CompileOptions hopt;
    hopt.precision = Precision::F16;
    InferenceProgram fp16 =
        compileInference(f.m.graph, {f.m.logits}, hopt, f.store);

    Batch b = f.task.sample(8, f.rng);
    Tensor lf = fp32.run({{"x", b.x}})[0];
    Tensor lh = fp16.run({{"x", b.x}})[0];
    EXPECT_LT(maxAbsDiff(lf, lh), 0.08f);
    const CompileReport &rh = fp16.report();
    EXPECT_GT(rh.arenaBytesByDtype[static_cast<int>(DType::F16)], 0);
}

} // namespace
} // namespace pe
