/**
 * @file
 * The one depthwise driver: DwConv2d, DwConvBiasAct, DwConv2dBwdInput,
 * DwConv2dBwdWeight and QuantDwConv2d at every SIMD tier.
 *
 * The driver owns the traversal; a tier supplies only its lanes, two
 * small structs of static functions over kDwLanes channels at once:
 *
 *     struct F32Lanes {                  // fp32 ops
 *         using T = float;  using V = ...;
 *         static V load(const float *p);           // lanes p[0..8)
 *         static void store(float *p, V v);
 *         static V fma(V acc, V a, V b);   // acc + a * b, may fuse
 *         static V madd(V acc, V a, V b);  // acc + a * b, two roundings
 *         static void transpose(const float *s, int64_t ss,
 *                               float *d, int64_t ds); // 8x8 block
 *     };
 *     struct I32Lanes {                  // QuantDwConv2d
 *         using T = int32_t;  using V = ...;
 *         load / store / fma / transpose as above, in int32
 *         static void emit(const int32_t *acc, int64_t n, int64_t c,
 *                          const Requant &rq, int8_t *out);
 *                           // requantize n accumulators of channel c
 *     };
 *
 * and registers kutil::dwConv<F32Lanes, I32Lanes> through
 * registerDwConvKernels(), which fixes the partition for every tier.
 *
 * Traversal. The lanes are a block of kDwLanes channels. A block's
 * weights and its planes (in row bands when a plane is large) are
 * transposed to channel-last in a bounded stack tile, so one vector
 * load reads one tap of eight channels. Tap ranges are computed once
 * per output row and column (DwSpan), and only in-bounds taps are
 * visited: there are no masks, no gathers and no padding taps. The
 * forward and input backward compute up to 8 images of a block at
 * once (independent accumulators sharing each weight load), and write
 * their outputs back 8 pixels at a time through the lane transpose.
 *
 * Accumulation order, per lane, is the order of the scalar loops this
 * driver replaced, so the scalar tier equals them value for value on
 * finite inputs and the int8 tiers are bit-exact to each other:
 *  - forward: the in-bounds taps in (kh, kw) order, from the bias
 *    (DwConvBiasAct) or zero;
 *  - input backward: dx gathers the dy pixels that reach it in (i, j)
 *    order from zero, the order the scatter loop added them in;
 *  - weight backward: each tap sums dy * x over (n, i, j) from zero.
 * The scalar lanes round each product and each sum. The SIMD fp32
 * lanes fuse them in the forward and input backward (short sums,
 * within 1e-5 relative); the weight backward sums a whole batch of
 * planes, so every tier rounds it like the scalar lanes (madd) and its
 * result is identical across tiers.
 *
 * Partition: (channel block, image) pairs for the forward, input
 * backward and int8 ops, channel blocks for the weight backward. Every
 * tier registers the same domain, so a plan's shard counts do not
 * depend on the tier it binds. The driver declares no arena workspace.
 *
 * Every function template here depends on the tier's lane types, which
 * live in anonymous namespaces: each tier's instantiation is private to
 * its translation unit and compiled with that unit's ISA flags.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "kernels/kernel.h"
#include "kernels/kernel_util.h"

namespace pe {
namespace kutil {

/** Channels per depthwise block: the lane count of every tier. */
constexpr int64_t kDwLanes = 8;

/** Bytes of a block's stack tile. A plane whose tile would not fit is
 *  processed in row bands (and a row too wide for one band in column
 *  bands); only a kernel too large for a one-pixel band allocates. */
constexpr int64_t kDwTileBytes = 48 * 1024;

/** One output coordinate's taps along one axis, relative to its tile. */
struct DwSpan {
    int64_t src; ///< first source index in the tile's source window
    int64_t n;   ///< number of taps
    int64_t tap; ///< first tap index in the tap rectangle
};

/** Geometry of one depthwise op, with the tiling of its plane. */
struct DwGeom {
    OpKind op;
    int64_t n, ch, h, w;  ///< x (or dx)
    int64_t kh, kw;
    int64_t ho, wo;       ///< y (or dy)
    int64_t stride, pad;
    int64_t channels;     ///< channels computed (limitCo for dW)
    /** Tap rectangle any output reaches: rows [a0, a1), cols [b0, b1).
     *  Weights and dW are held for these taps only. */
    int64_t a0, a1, b0, b1;
    /** The plane a tile covers: y (forward), dx (input backward) or
     *  dy (weight backward), and the rows x cols of one tile of it. */
    int64_t rows, cols, bandRows, bandCols;
    /** Images of one block a forward or input-backward tile computes
     *  together (1 for the weight backward), and the pixels of the
     *  largest source window of a tile. */
    int64_t group, winPix;
    int64_t tileBytes;    ///< scratch one tile needs (> kDwTileBytes
                          ///< only for a kernel too large for a band)

    int64_t blocks() const { return (channels + kDwLanes - 1) / kDwLanes; }
    int64_t tapRows() const { return a1 - a0; }
    int64_t tapCols() const { return b1 - b0; }
    bool
    singleTile() const
    {
        return bandRows == rows && bandCols == cols;
    }
};

DwGeom dwGeomOf(const KernelCtx &c);

/** One tile: plane rows [r0, r1) x cols [c0, c1), and the window of
 *  the source plane it reads (x; dy for the input backward). */
struct DwTile {
    int64_t r0, r1, c0, c1;
    int64_t sr0, sr1, sc0, sc1;

    int64_t srcCols() const { return sc1 - sc0; }
};

DwTile dwTileAt(const DwGeom &g, int64_t r0, int64_t c0);

/** Tap spans of one tile: one per tile row (@p rows) and per tile
 *  column (@p cols). */
void dwSpans(const DwGeom &g, const DwTile &t, DwSpan *rows, DwSpan *cols);

/** Register @p fn as the @p tier depthwise kernel of all four ops with
 *  the one partition. */
void registerDwConvKernels(const std::string &tier, KernelFn fn);

/** The traversal, instantiated once per tier with its lanes. */
template <class F, class Q>
struct DwDriver {
    /** The tier's lanes over elements of type T. */
    template <class T>
    using LanesOf = std::conditional_t<std::is_same_v<T, float>, F, Q>;

    /** Bump allocator over the stack tile (heap past kDwTileBytes). */
    struct Scratch {
        alignas(64) unsigned char stack[kDwTileBytes];
        std::vector<unsigned char> heap;
        unsigned char *base;
        int64_t used = 0;

        explicit Scratch(int64_t bytes) : base(stack)
        {
            if (bytes > kDwTileBytes) {
                heap.resize(static_cast<size_t>(bytes) + 64);
                base = heap.data();
            }
        }

        template <class T>
        T *
        take(int64_t count)
        {
            T *p = reinterpret_cast<T *>(base + used);
            used += (count * static_cast<int64_t>(sizeof(T)) + 63) / 64 * 64;
            return p;
        }
    };

    /**
     * Channel-last copy of lanes [0, cn) of a block's planes (plane
     * stride @p ps, row stride @p rs), rows [r0, r1) x cols [c0, c1),
     * minus @p sub; idle lanes read zero. Full blocks move 8 pixels at
     * a time through the lane transpose, along each run of pixels that
     * is contiguous in the planes (the whole window when it spans full
     * rows).
     */
    template <class T, class S>
    static void
    pack(const S *src, int64_t ps, int64_t rs, int64_t cn, int64_t r0,
         int64_t r1, int64_t c0, int64_t c1, T sub, T *dst)
    {
        using L = LanesOf<T>;
        const int64_t wc = c1 - c0;
        const bool flat = wc == rs;
        const int64_t runs = flat ? 1 : r1 - r0;
        const int64_t len = flat ? (r1 - r0) * wc : wc;
        for (int64_t u = 0; u < runs; ++u) {
            const S *s = src + (r0 + u) * rs + c0;
            T *d = dst + u * len * kDwLanes;
            int64_t p = 0;
            if (cn == kDwLanes) {
                for (; p + kDwLanes <= len; p += kDwLanes) {
                    if constexpr (std::is_same_v<S, T>) {
                        L::transpose(s + p, ps, d + p * kDwLanes, kDwLanes);
                    } else {
                        alignas(32) T tmp[kDwLanes * kDwLanes];
                        for (int64_t l = 0; l < kDwLanes; ++l)
                            for (int64_t j = 0; j < kDwLanes; ++j)
                                tmp[l * kDwLanes + j] =
                                    static_cast<T>(s[l * ps + p + j]) - sub;
                        L::transpose(tmp, kDwLanes, d + p * kDwLanes,
                                     kDwLanes);
                    }
                }
            }
            for (; p < len; ++p)
                for (int64_t l = 0; l < kDwLanes; ++l)
                    d[p * kDwLanes + l] =
                        l < cn ? static_cast<T>(s[l * ps + p]) - sub : T(0);
        }
    }

    /**
     * Collects the outputs of a tile, up to 8 pixels per image, and
     * hands them out channel-major after one lane transpose per image:
     * put(image, channel, offset, values, count) receives one channel
     * of the count pixels that start at plane offset `offset`.
     */
    template <class L, class Put>
    struct Sink {
        using T = typename L::T;
        alignas(32) T buf[kDwLanes][kDwLanes * kDwLanes] = {};
        int64_t slot = 0, start = 0, images = 0;
        int64_t first = 0, c0 = 0, cn = 0; ///< first image, channels
        Put &put;

        explicit Sink(Put &p) : put(p) {}

        template <int G>
        void
        add(int64_t off, const typename L::V *acc)
        {
            if (slot == kDwLanes || (slot > 0 && off != start + slot))
                flush();
            if (slot == 0)
                start = off;
            for (int k = 0; k < G; ++k)
                L::store(buf[k] + slot * kDwLanes, acc[k]);
            images = G;
            ++slot;
        }

        void
        flush()
        {
            alignas(32) T rows[kDwLanes * kDwLanes];
            for (int64_t k = 0; k < images && slot > 0; ++k) {
                L::transpose(buf[k], kDwLanes, rows, kDwLanes);
                for (int64_t l = 0; l < cn; ++l)
                    put(first + k, c0 + l, start, rows + l * kDwLanes,
                        slot);
            }
            slot = 0;
        }
    };

    /**
     * Every pixel of one tile for G images at once (their source
     * windows @p winStride apart): acc = init + sum of src * w over the
     * pixel's row span x column span, the weight tap moving by @p wStep
     * per source step (1 forward, -stride input backward). The G
     * accumulators are independent chains that share each weight load.
     */
    template <class L, int G, class S>
    static void
    gather(const typename L::T *src, int64_t winStride, int64_t srcCols,
           const typename L::T *wt, int64_t wCols, int64_t wStep,
           const DwSpan *rows, int64_t nr, const DwSpan *cols, int64_t nc,
           typename L::V init, int64_t outAt, int64_t outCols, S &sink)
    {
        using T = typename L::T;
        const int64_t srow = srcCols * kDwLanes;
        const int64_t wrow = wStep * wCols * kDwLanes;
        const int64_t wcol = wStep * kDwLanes;
        for (int64_t r = 0; r < nr; ++r) {
            const DwSpan ra = rows[r];
            for (int64_t q = 0; q < nc; ++q) {
                const DwSpan cb = cols[q];
                typename L::V acc[G];
                for (int k = 0; k < G; ++k)
                    acc[k] = init;
                const T *xs = src + (ra.src * srcCols + cb.src) * kDwLanes;
                const T *ws = wt + (ra.tap * wCols + cb.tap) * kDwLanes;
                for (int64_t a = 0; a < ra.n; ++a, xs += srow, ws += wrow) {
                    for (int64_t b = 0; b < cb.n; ++b) {
                        typename L::V wv = L::load(ws + b * wcol);
                        const T *xb = xs + b * kDwLanes;
                        for (int k = 0; k < G; ++k)
                            acc[k] = L::fma(acc[k],
                                            L::load(xb + k * winStride), wv);
                    }
                }
                sink.template add<G>(outAt + r * outCols + q, acc);
            }
        }
        sink.flush();
    }

    /**
     * Forward (fp32 and int8) and input backward. Shards are (channel
     * block, image) pairs, block-major; consecutive images of a block
     * run in groups of up to g.group. put(image, channel, offset,
     * values, count) stores one channel's run of outputs.
     */
    template <class L, class S, class Put>
    static void
    gatherOp(const KernelCtx &c, const DwGeom &g, const S *src,
             const S *wts, typename L::T srcSub, const float *bias,
             Put &put)
    {
        using T = typename L::T;
        const bool fwd = g.op != OpKind::DwConv2dBwdInput;
        // Source planes: x [n, ch, h, w] forward, dy [n, ch, ho, wo]
        // for the input backward.
        const int64_t sh = fwd ? g.h : g.ho, sw = fwd ? g.w : g.wo;
        const int64_t wStep = fwd ? 1 : -g.stride;
        const int64_t winStride = g.winPix * kDwLanes;

        Scratch sc(g.tileBytes);
        T *wt = sc.template take<T>(g.tapRows() * g.tapCols() * kDwLanes);
        DwSpan *rs = sc.template take<DwSpan>(g.bandRows);
        DwSpan *cs = sc.template take<DwSpan>(g.bandCols);
        T *win = sc.template take<T>(g.group * winStride);
        DwTile t = dwTileAt(g, 0, 0);
        if (g.singleTile())
            dwSpans(g, t, rs, cs);
        Sink<L, Put> sink(put);
        alignas(32) T init[kDwLanes] = {};

        const int64_t hi = partitionEnd(c, g.blocks() * g.n);
        int64_t cur = -1;
        for (int64_t idx = c.begin; idx < hi;) {
            int64_t cb = idx / g.n, n0 = idx % g.n;
            int64_t gn = std::min({g.group, g.n - n0, hi - idx});
            idx += gn;
            const int64_t c0 = cb * kDwLanes;
            if (cb != cur) {
                cur = cb;
                sink.c0 = c0;
                sink.cn = std::min(kDwLanes, g.channels - c0);
                pack(wts + c0 * g.kh * g.kw, g.kh * g.kw, g.kw, sink.cn,
                     g.a0, g.a1, g.b0, g.b1, T(0), wt);
                for (int64_t l = 0; l < kDwLanes; ++l)
                    init[l] = bias && l < sink.cn ? bias[c0 + l] : T(0);
            }
            const typename L::V iv = L::load(init);
            for (int64_t r0 = 0; r0 < g.rows; r0 += g.bandRows) {
                for (int64_t q0 = 0; q0 < g.cols; q0 += g.bandCols) {
                    if (!g.singleTile()) {
                        t = dwTileAt(g, r0, q0);
                        dwSpans(g, t, rs, cs);
                    }
                    for (int64_t k = 0; k < gn; ++k)
                        pack(src + ((n0 + k) * g.ch + c0) * sh * sw,
                             sh * sw, sw, sink.cn, t.sr0, t.sr1, t.sc0,
                             t.sc1, srcSub, win + k * winStride);
                    // Images in groups of 8, 4, 2, 1.
                    auto run = [&](auto G, int64_t k) {
                        sink.first = n0 + k;
                        gather<L, decltype(G)::value>(
                            win + k * winStride, winStride, t.srcCols(), wt,
                            g.tapCols(), wStep, rs, t.r1 - t.r0, cs,
                            t.c1 - t.c0, iv, t.r0 * g.cols + t.c0, g.cols,
                            sink);
                    };
                    int64_t k = 0;
                    for (; k + 8 <= gn; k += 8)
                        run(std::integral_constant<int, 8>(), k);
                    if (k + 4 <= gn) {
                        run(std::integral_constant<int, 4>(), k);
                        k += 4;
                    }
                    if (k + 2 <= gn) {
                        run(std::integral_constant<int, 2>(), k);
                        k += 2;
                    }
                    if (k < gn)
                        run(std::integral_constant<int, 1>(), k);
                }
            }
        }
    }

    /** fp32 forward (from the bias, then "act") and input backward. */
    static void
    gatherF32(const KernelCtx &c, const DwGeom &g)
    {
        const bool fwd = g.op != OpKind::DwConv2dBwdInput;
        const float *bias =
            g.op == OpKind::DwConvBiasAct ? c.in[2] : nullptr;
        const int64_t act = c.node->attrs.getInt("act", kActNone);
        const int64_t plane = g.rows * g.cols, ch = g.ch;
        float *out = c.out;
        auto put = [&](int64_t n, int64_t chan, int64_t at, const float *v,
                       int64_t cnt) {
            float *o = out + (n * ch + chan) * plane + at;
            if (act == kActNone) {
                for (int64_t p = 0; p < cnt; ++p)
                    o[p] = v[p];
            } else if (act == kActRelu) {
                for (int64_t p = 0; p < cnt; ++p)
                    o[p] = v[p] > 0 ? v[p] : 0.0f;
            } else {
                for (int64_t p = 0; p < cnt; ++p)
                    o[p] = actOf(act, v[p]);
            }
        };
        gatherOp<F>(c, g, c.in[fwd ? 0 : 1], c.in[fwd ? 1 : 0], 0.0f, bias,
                    put);
    }
    /** QuantDwConv2d: (x - zp) * w in int32 per lane; each channel's
     *  run of accumulators is requantized by the tier's emit. */
    static void
    gatherI8(const KernelCtx &c, const DwGeom &g)
    {
        Requant rq = requantOf(c);
        const int64_t plane = g.rows * g.cols, ch = g.ch;
        int8_t *out = reinterpret_cast<int8_t *>(c.out);
        auto put = [&](int64_t n, int64_t chan, int64_t at,
                       const int32_t *acc, int64_t cnt) {
            Q::emit(acc, cnt, chan, rq, out + (n * ch + chan) * plane + at);
        };
        gatherOp<Q>(c, g, reinterpret_cast<const int8_t *>(c.in[0]),
                    reinterpret_cast<const int8_t *>(c.in[1]), rq.xZp,
                    nullptr, put);
    }

    /**
     * DwConv2dBwdWeight. Shards are channel blocks. Each dy pixel, in
     * (n, i, j) order, adds dy * x to the dW taps its forward span
     * reached; the taps of one pixel are independent updates.
     */
    static void
    bwdWeight(const KernelCtx &c, const DwGeom &g)
    {
        using T = typename F::T;
        const int64_t hu = g.tapRows(), wu = g.tapCols();
        Scratch sc(g.tileBytes);
        T *dw = sc.template take<T>(hu * wu * kDwLanes);
        DwSpan *rs = sc.template take<DwSpan>(g.bandRows);
        DwSpan *cs = sc.template take<DwSpan>(g.bandCols);
        T *dyt = sc.template take<T>(g.bandRows * g.bandCols * kDwLanes);
        T *xt = sc.template take<T>(g.winPix * kDwLanes);
        DwTile t = dwTileAt(g, 0, 0);
        if (g.singleTile())
            dwSpans(g, t, rs, cs);

        const int64_t ktaps = g.kh * g.kw;
        const int64_t hi = partitionEnd(c, g.blocks());
        for (int64_t cb = c.begin; cb < hi; ++cb) {
            const int64_t c0 = cb * kDwLanes;
            const int64_t cn = std::min(kDwLanes, g.channels - c0);
            std::fill(dw, dw + hu * wu * kDwLanes, T(0));
            for (int64_t n = 0; n < g.n; ++n) {
                const float *xp = c.in[0] + (n * g.ch + c0) * g.h * g.w;
                const float *dyp = c.in[1] + (n * g.ch + c0) * g.ho * g.wo;
                for (int64_t r0 = 0; r0 < g.rows; r0 += g.bandRows) {
                    for (int64_t q0 = 0; q0 < g.cols; q0 += g.bandCols) {
                        if (!g.singleTile()) {
                            t = dwTileAt(g, r0, q0);
                            dwSpans(g, t, rs, cs);
                        }
                        pack(dyp, g.ho * g.wo, g.wo, cn, t.r0, t.r1, t.c0,
                             t.c1, T(0), dyt);
                        pack(xp, g.h * g.w, g.w, cn, t.sr0, t.sr1, t.sc0,
                             t.sc1, T(0), xt);
                        scatterTile(dyt, t.r1 - t.r0, t.c1 - t.c0, xt,
                                    t.srcCols(), rs, cs, dw, wu);
                    }
                }
            }
            // Taps outside the rectangle never meet the plane: zero.
            float *o = c.out + c0 * ktaps;
            std::fill(o, o + cn * ktaps, 0.0f);
            for (int64_t a = 0; a < hu; ++a)
                for (int64_t b = 0; b < wu; ++b)
                    for (int64_t l = 0; l < cn; ++l)
                        o[l * ktaps + (g.a0 + a) * g.kw + g.b0 + b] =
                            dw[(a * wu + b) * kDwLanes + l];
        }
    }

    /** dW[tap] += dy * x for every dy pixel of one tile, in (i, j)
     *  order, over the taps of the pixel's spans. */
    static void
    scatterTile(const float *dyt, int64_t nr, int64_t nc, const float *xt,
                int64_t xc, const DwSpan *rows, const DwSpan *cols,
                float *dw, int64_t wu)
    {
        for (int64_t r = 0; r < nr; ++r) {
            const DwSpan ra = rows[r];
            for (int64_t q = 0; q < nc; ++q) {
                const DwSpan cb = cols[q];
                typename F::V gy = F::load(dyt + (r * nc + q) * kDwLanes);
                const float *xs = xt + (ra.src * xc + cb.src) * kDwLanes;
                float *d = dw + (ra.tap * wu + cb.tap) * kDwLanes;
                for (int64_t a = 0; a < ra.n;
                     ++a, xs += xc * kDwLanes, d += wu * kDwLanes) {
                    for (int64_t b = 0; b < cb.n; ++b) {
                        float *db = d + b * kDwLanes;
                        F::store(db, F::madd(F::load(db), gy,
                                             F::load(xs + b * kDwLanes)));
                    }
                }
            }
        }
    }
};

/** The depthwise kernel of a tier: dispatch on the op. */
template <class F, class Q>
void
dwConv(const KernelCtx &c)
{
    DwGeom g = dwGeomOf(c);
    switch (c.node->op) {
      case OpKind::DwConv2dBwdWeight:
        DwDriver<F, Q>::bwdWeight(c, g);
        return;
      case OpKind::QuantDwConv2d:
        DwDriver<F, Q>::gatherI8(c, g);
        return;
      default:
        DwDriver<F, Q>::gatherF32(c, g);
        return;
    }
}

} // namespace kutil
} // namespace pe
