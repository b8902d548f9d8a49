/**
 * @file
 * AVX2/FMA kernel tier: the fp32 GEMM microkernel with its bias+act
 * epilogue (MatMul, BatchMatMul, MatMulBiasAct, Conv2d, ConvBiasAct,
 * and both conv backward ops), the depthwise lanes (DwConv2d,
 * DwConvBiasAct, both depthwise backward ops, QuantDwConv2d), fused
 * attention, the int8 GEMM with vectorized requantization, and the
 * int8 conv. Registered as
 * the "avx2" variant of each op's scalar kernel, with IDENTICAL
 * partition domains and workspace declarations (kernel_util.h), so the
 * executor can switch tiers at bind time against one memory plan.
 *
 * Numerics contract (README "Kernel tiers"):
 *  - int8 kernels are BIT-EXACT to the scalar int8 kernels: int32
 *    accumulation is fully associative, and the vectorized
 *    requantization performs the same IEEE mul/div/clamp sequence
 *    with _mm256_cvtps_epi32 matching lrintf's round-nearest-even.
 *    Activations beyond relu (gelu/silu) requantize through the
 *    scalar emit path, so exactness never depends on vector
 *    transcendental approximations.
 *  - fp32 kernels use FMA (one rounding per multiply-add), so results
 *    differ from scalar in the last bits: within 1e-5 relative
 *    (asserted by test_simd).
 *    Thread-count invariance still holds — every output element's
 *    accumulation order is independent of the shard bounds.
 *
 * This TU is compiled with -mavx2 -mfma -ffp-contract=off (the
 * contract flag keeps the compiler from contracting the SCALAR tail
 * code paths, which must round like plain mul+add), and its
 * registration only runs when cpu_features reports the host executes
 * AVX2 — so this object file is safe to link into binaries deployed
 * on SSE-only machines.
 */

#include "kernels/kernel.h"

#if !defined(PE_NO_SIMD) && (defined(__x86_64__) || defined(__i386__))

#include <algorithm>
#include <cmath>
#include <cstring>
#include <immintrin.h>
#include <limits>

#include "kernels/dwconv.h"
#include "kernels/kernel_util.h"

namespace pe {
namespace {

using kutil::Requant;
using kutil::requantOf;

// ---- the fp32 GEMM (bias+act epilogue) --------------------------------

using kutil::Gemm;

constexpr int kMr = 6; ///< register-tile rows (6 x 2 ymm accumulators)

/** All-ones in the first @p n (0..8) lanes. */
__m256i
laneMask(int64_t n)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/**
 * One R-row x (8*NV)-column register tile of C at (r0, j0). The
 * accumulators start at C (accumulate), the bias, or zero, take
 * one FMA per k step, and leave through the epilogue: relu is a max
 * on the registers, gelu/silu run kutil::actOf on the stored tile so
 * every tier shares one copy of the transcendental math. Masked tiles
 * cover the column tail without touching memory past it.
 */
template <int R, int NV, bool Masked>
void
gemmTileAvx2(const Gemm &g, int64_t r0, int64_t j0,
             const __m256i *mask)
{
    __m256 acc[R][NV];
    float *cp = g.c + r0 * g.ldc + j0;
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
            float *p = cp + r * g.ldc + 8 * v;
            const float *bias = g.bias + j0 + 8 * v;
            if (g.accumulate)
                acc[r][v] = Masked ? _mm256_maskload_ps(p, mask[v])
                                   : _mm256_loadu_ps(p);
            else if (g.bias && g.colBias)
                acc[r][v] = Masked ? _mm256_maskload_ps(bias, mask[v])
                                   : _mm256_loadu_ps(bias);
            else
                acc[r][v] =
                    _mm256_set1_ps(g.bias ? g.bias[r0 + r] : 0.0f);
        }
    }
    const float *ap = g.a + r0 * g.ars;
    const float *bp = g.b + j0;
    const int64_t k = g.k, ars = g.ars, acs = g.acs, ldb = g.ldb;
    for (int64_t kk = 0; kk < k; ++kk, ap += acs, bp += ldb) {
        __m256 bv[NV];
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v)
            bv[v] = Masked ? _mm256_maskload_ps(bp + 8 * v, mask[v])
                           : _mm256_loadu_ps(bp + 8 * v);
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r) {
            __m256 av = _mm256_broadcast_ss(ap + r * ars);
#pragma GCC unroll 4
            for (int v = 0; v < NV; ++v)
                acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
        }
    }
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
            __m256 o = acc[r][v];
            // max(NaN, 0) picks 0, as actOf's relu does.
            if (g.act == kActRelu)
                o = _mm256_max_ps(o, _mm256_setzero_ps());
            float *p = cp + r * g.ldc + 8 * v;
            if (Masked)
                _mm256_maskstore_ps(p, mask[v], o);
            else
                _mm256_storeu_ps(p, o);
        }
    }
    if (g.act != kActNone && g.act != kActRelu) {
        int64_t jn = std::min<int64_t>(8 * NV, g.n - j0);
        for (int r = 0; r < R; ++r) {
            float *p = cp + r * g.ldc;
            for (int64_t j = 0; j < jn; ++j)
                p[j] = kutil::actOf(g.act, p[j]);
        }
    }
}

using GemmTileFn = void (*)(const Gemm &, int64_t, int64_t,
                            const __m256i *);

/** The tile for R rows of a strip @p jn (1..32) columns wide: as many
 *  8-lane vectors as cover it, masked when the last one is partial. */
template <int R>
GemmTileFn
tileOf(int64_t jn)
{
    bool masked = jn % 8 != 0;
    switch ((jn + 7) / 8) {
      case 1: return masked ? gemmTileAvx2<R, 1, true>
                            : gemmTileAvx2<R, 1, false>;
      case 2: return masked ? gemmTileAvx2<R, 2, true>
                            : gemmTileAvx2<R, 2, false>;
      case 3: return masked ? gemmTileAvx2<R, 3, true>
                            : gemmTileAvx2<R, 3, false>;
      default: return masked ? gemmTileAvx2<R, 4, true>
                             : gemmTileAvx2<R, 4, false>;
    }
}

GemmTileFn
tileFor(int64_t rows, int64_t jn)
{
    switch (rows) {
      case 1: return tileOf<1>(jn);
      case 2: return tileOf<2>(jn);
      case 3: return tileOf<3>(jn);
      case 4: return tileOf<4>(jn);
      case 5: return tileOf<5>(jn);
      default: return tileOf<kMr>(jn);
    }
}

/**
 * The fp32 GEMM: column strips swept by 6-row register tiles (6 x 2
 * ymm accumulators). A GEMV-shaped GEMM (one or two rows, as in
 * decode) has too few rows to hide the FMA latency, so it takes
 * 32-column strips instead: four independent accumulators per row.
 * Every element's k-order is fixed by its position, never by the
 * strip width or the shard bounds.
 */
void
gemmAvx2(const Gemm &g)
{
    const int64_t strip = g.m <= 2 ? 32 : 16;
    for (int64_t j0 = 0; j0 < g.n; j0 += strip) {
        int64_t jn = std::min(strip, g.n - j0);
        __m256i mask[4];
        for (int v = 0; v < 4; ++v)
            mask[v] = laneMask(std::clamp<int64_t>(jn - 8 * v, 0, 8));
        GemmTileFn full = tileFor(kMr, jn);
        int64_t r0 = 0;
        for (; r0 + kMr <= g.m; r0 += kMr)
            full(g, r0, j0, mask);
        if (r0 < g.m)
            tileFor(g.m - r0, jn)(g, r0, j0, mask);
    }
}

void
matmulAvx2K(const KernelCtx &c)
{
    kutil::matmul(c, gemmAvx2);
}

void
convGemmAvx2K(const KernelCtx &c)
{
    kutil::convForward(c, gemmAvx2);
}

void
convBwdInputAvx2K(const KernelCtx &c)
{
    kutil::convBwdInput(c, gemmAvx2);
}

void
convBwdWeightAvx2K(const KernelCtx &c)
{
    kutil::convBwdWeight(c, gemmAvx2);
}

// ---- fused attention --------------------------------------------------

float
hsumPs(__m256 v)
{
    __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

/**
 * Same per-row structure (and workspace) as the scalar FusedAttention
 * kernel: score row in shard scratch, softmax, V-accumulate. The QK
 * dot and the V product are FMA-vectorized (lane sums differ from the
 * scalar order in the last bits — fp32 tier contract, 1e-5); the
 * softmax reduction itself stays scalar, so masked -1e30f scores still
 * underflow to exactly 0.0f.
 */
void
fusedAttentionAvx2K(const KernelCtx &c)
{
    const Shape &qs = *c.inShapes[0];
    const Shape &ks = *c.inShapes[1];
    size_t rank = qs.size();
    int64_t dh = qs[rank - 1];
    int64_t s = qs[rank - 2];
    int64_t m = ks[rank - 2];
    float scale = kutil::attrF(c, "scale", 1.0);
    // heads > 0: head-split form — K/V rows are head-strided slices
    // of the [L,M,H*Dh] cache slab, mask rows lead-indexed.
    int64_t heads = kutil::attrI(c, "heads", 0);
    int64_t kstr = heads > 0 ? heads * dh : dh;

    const float *q = c.in[0];
    const float *k = c.in[1];
    const float *v = c.in[2];
    const float *mask = c.in[3];
    float *scores = c.workspace;

    int64_t rows = numel(*c.outShape) / dh;
    for (int64_t r = c.begin; r < partitionEnd(c, rows); ++r) {
        const float *qrow = q + r * dh;
        const float *mrow, *kb, *vb;
        if (heads > 0) {
            int64_t lead = r / heads, hd = r % heads;
            mrow = mask + lead * m;
            kb = k + lead * m * kstr + hd * dh;
            vb = v + lead * m * kstr + hd * dh;
        } else {
            mrow = mask + r * m;
            kb = k + (r / s) * m * dh;
            vb = v + (r / s) * m * dh;
        }

        float mx = -std::numeric_limits<float>::infinity();
        for (int64_t i = 0; i < m; ++i) {
            const float *krow = kb + i * kstr;
            __m256 acc8 = _mm256_setzero_ps();
            int64_t kk = 0;
            for (; kk + 8 <= dh; kk += 8)
                acc8 = _mm256_fmadd_ps(_mm256_loadu_ps(qrow + kk),
                                       _mm256_loadu_ps(krow + kk),
                                       acc8);
            float acc = hsumPs(acc8);
            for (; kk < dh; ++kk)
                acc += qrow[kk] * krow[kk];
            scores[i] = acc * scale + mrow[i];
            if (scores[i] > mx)
                mx = scores[i];
        }
        float sum = 0.0f;
        for (int64_t i = 0; i < m; ++i) {
            scores[i] = std::exp(scores[i] - mx);
            sum += scores[i];
        }
        float inv = 1.0f / sum;
        for (int64_t i = 0; i < m; ++i)
            scores[i] *= inv;

        float *orow = c.out + r * dh;
        int64_t j = 0;
        for (; j + 8 <= dh; j += 8) {
            __m256 acc = _mm256_setzero_ps();
            for (int64_t i = 0; i < m; ++i)
                acc = _mm256_fmadd_ps(
                    _mm256_set1_ps(scores[i]),
                    _mm256_loadu_ps(vb + i * kstr + j), acc);
            _mm256_storeu_ps(orow + j, acc);
        }
        for (; j < dh; ++j) {
            float acc = 0;
            for (int64_t i = 0; i < m; ++i)
                acc += scores[i] * vb[i * kstr + j];
            orow[j] = acc;
        }
    }
}

// ---- int8 helpers -----------------------------------------------------

int32_t
hsumEpi32(__m256i v)
{
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
}

/** sum_k (a[k] - azp) * w[k] in int32 — bit-exact to the scalar loop
 *  (integer addition is associative, so the lane order is free). */
int32_t
dotI8(const int8_t *a, const int8_t *w, int64_t k, int32_t azp)
{
    __m256i acc = _mm256_setzero_si256();
    __m256i zp16 = _mm256_set1_epi16(static_cast<short>(azp));
    int64_t kk = 0;
    for (; kk + 16 <= k; kk += 16) {
        __m256i a16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + kk)));
        __m256i w16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(w + kk)));
        // (a - zp) fits i16 ([-255, 255]); each i16*i16 product fits
        // i16-pair madd's i32 lanes with no overflow.
        acc = _mm256_add_epi32(
            acc, _mm256_madd_epi16(_mm256_sub_epi16(a16, zp16), w16));
    }
    int32_t s = hsumEpi32(acc);
    for (; kk < k; ++kk)
        s += (static_cast<int32_t>(a[kk]) - azp) *
             static_cast<int32_t>(w[kk]);
    return s;
}

/** True when the vectorized requant path reproduces Requant::emit
 *  exactly (relu is a max; gelu/silu go through the scalar path). */
bool
vectorEmitOk(const Requant &rq)
{
    return rq.act == kActNone || rq.act == kActRelu;
}

/**
 * Requantize 8 int32 accumulators: the same float operation sequence
 * as Requant::emit / quantizeValue, elementwise — (i32->f32 convert,
 * mul, mul, optional bias add, relu max, IEEE div, add, clamp,
 * round-nearest-even) — so the result is bit-exact to 8 scalar emits.
 */
void
emit8(const int32_t *acc, __m256 sw, __m256 bias, bool hasBias,
      const Requant &rq, int8_t *dst)
{
    __m256 r = _mm256_mul_ps(
        _mm256_cvtepi32_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc))),
        _mm256_set1_ps(rq.xScale));
    r = _mm256_mul_ps(r, sw);
    if (hasBias)
        r = _mm256_add_ps(r, bias);
    if (rq.act == kActRelu)
        r = _mm256_max_ps(r, _mm256_setzero_ps());
    __m256 q = _mm256_add_ps(
        _mm256_div_ps(r, _mm256_set1_ps(rq.yScale)),
        _mm256_set1_ps(static_cast<float>(rq.yZp)));
    q = _mm256_max_ps(q, _mm256_set1_ps(-128.0f));
    q = _mm256_min_ps(q, _mm256_set1_ps(127.0f));
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes),
                       _mm256_cvtps_epi32(q));
    for (int i = 0; i < 8; ++i)
        dst[i] = static_cast<int8_t>(lanes[i]);
}

// ---- int8 GEMM --------------------------------------------------------

void
qmatmulAvx2K(const KernelCtx &c)
{
    const Shape &as = *c.inShapes[0];
    bool tb = c.node->attrs.getInt("transB", 0) != 0;
    int64_t m_hi = partitionEnd(c, (*c.outShape)[0]);
    int64_t k = as[1];
    int64_t n = (*c.outShape)[1];
    const int8_t *a = reinterpret_cast<const int8_t *>(c.in[0]);
    const int8_t *b = reinterpret_cast<const int8_t *>(c.in[1]);
    int8_t *out = reinterpret_cast<int8_t *>(c.out);
    Requant rq = requantOf(c);

    // Pack W into [N, K] rows — identical layout to the scalar tier.
    int8_t *wp = reinterpret_cast<int8_t *>(c.workspace);
    for (int64_t j = 0; j < n; ++j) {
        for (int64_t kk = 0; kk < k; ++kk)
            wp[j * k + kk] = tb ? b[j * k + kk] : b[kk * n + j];
    }

    bool vec_emit = vectorEmitOk(rq);
    for (int64_t i = c.begin; i < m_hi; ++i) {
        const int8_t *arow = a + i * k;
        int8_t *orow = out + i * n;
        int64_t j = 0;
        for (; j + 8 <= n && vec_emit; j += 8) {
            alignas(32) int32_t accs[8];
            for (int64_t jj = 0; jj < 8; ++jj)
                accs[jj] = dotI8(arow, wp + (j + jj) * k, k, rq.xZp);
            __m256 sw = rq.wScales
                            ? _mm256_loadu_ps(rq.wScales + j)
                            : _mm256_set1_ps(rq.wScale);
            __m256 bias = rq.bias ? _mm256_loadu_ps(rq.bias + j)
                                  : _mm256_setzero_ps();
            emit8(accs, sw, bias, rq.bias != nullptr, rq, orow + j);
        }
        for (; j < n; ++j)
            orow[j] = rq.emit(dotI8(arow, wp + j * k, k, rq.xZp), j);
    }
}

// ---- int8 conv (im2col) ----------------------------------------------

void
qconvAvx2K(const KernelCtx &c)
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
    __m256i zp32 = _mm256_set1_epi32(rq.xZp);
    bool vec_emit = vectorEmitOk(rq);

    for (int64_t ni = c.begin; ni < partitionEnd(c, nI); ++ni) {
        kutil::im2colUnfold(x + ni * ci * h * w, col, ci, h, w, kh, kw,
                            ho, wo, stride, pad, zp8);
        int8_t *on = out + ni * co * cols;
        for (int64_t o = 0; o < co; ++o) {
            const int8_t *wrow = wt + o * k;
            int8_t *dst = on + o * cols;
            __m256 sw = _mm256_set1_ps(
                rq.wScales ? rq.wScales[o] : rq.wScale);
            __m256 bias =
                _mm256_set1_ps(rq.bias ? rq.bias[o] : 0.0f);
            int64_t j = 0;
            // 8 output pixels per iteration: each lane accumulates
            // (col - zp) * w over k with a broadcast weight.
            for (; j + 8 <= cols && vec_emit; j += 8) {
                __m256i acc = _mm256_setzero_si256();
                for (int64_t kk = 0; kk < k; ++kk) {
                    __m256i cv = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
                        reinterpret_cast<const __m128i *>(
                            col + kk * cols + j)));
                    acc = _mm256_add_epi32(
                        acc,
                        _mm256_mullo_epi32(
                            _mm256_sub_epi32(cv, zp32),
                            _mm256_set1_epi32(
                                static_cast<int32_t>(wrow[kk]))));
                }
                alignas(32) int32_t accs[8];
                _mm256_store_si256(
                    reinterpret_cast<__m256i *>(accs), acc);
                emit8(accs, sw, bias, rq.bias != nullptr, rq, dst + j);
            }
            for (; j < cols; ++j) {
                int32_t acc = 0;
                for (int64_t kk = 0; kk < k; ++kk)
                    acc += (static_cast<int32_t>(col[kk * cols + j]) -
                            rq.xZp) *
                           static_cast<int32_t>(wrow[kk]);
                dst[j] = rq.emit(acc, o);
            }
        }
    }
}

// ---- depthwise lanes ----------------------------------------------------

/** 8x8 transpose of 32-bit elements: d row j = s column j. */
void
transpose8x8(const float *s, int64_t ss, float *d, int64_t ds)
{
    __m256 r[8], t[8];
    for (int i = 0; i < 8; ++i)
        r[i] = _mm256_loadu_ps(s + i * ss);
    for (int i = 0; i < 8; i += 2) {
        t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
    }
    for (int i = 0; i < 8; i += 4) {
        r[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
        r[i + 1] =
            _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
        r[i + 2] =
            _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
        r[i + 3] =
            _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
    }
    for (int i = 0; i < 4; ++i) {
        _mm256_storeu_ps(d + i * ds,
                         _mm256_permute2f128_ps(r[i], r[i + 4], 0x20));
        _mm256_storeu_ps(d + (i + 4) * ds,
                         _mm256_permute2f128_ps(r[i], r[i + 4], 0x31));
    }
}

/** The depthwise driver's fp32 lanes: one __m256 of 8 channels. */
struct Avx2F32Lanes {
    using T = float;
    using V = __m256;

    static V load(const float *p) { return _mm256_loadu_ps(p); }
    static void store(float *p, V v) { _mm256_storeu_ps(p, v); }
    static V fma(V acc, V a, V b) { return _mm256_fmadd_ps(a, b, acc); }

    static V
    madd(V acc, V a, V b)
    {
        return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
    }

    static void
    transpose(const float *s, int64_t ss, float *d, int64_t ds)
    {
        transpose8x8(s, ss, d, ds);
    }
};

/** The int8 lanes: (x - zp) * w in 8 int32 lanes. A channel's run of 8
 *  accumulators requantizes through emit8 (bit-exact to Requant::emit),
 *  shorter runs and gelu/silu through the scalar emit. */
struct Avx2I32Lanes {
    using T = int32_t;
    using V = __m256i;

    static V
    load(const int32_t *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }

    static void
    store(int32_t *p, V v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }

    static V
    fma(V acc, V a, V b)
    {
        return _mm256_add_epi32(acc, _mm256_mullo_epi32(a, b));
    }

    static void
    transpose(const int32_t *s, int64_t ss, int32_t *d, int64_t ds)
    {
        transpose8x8(reinterpret_cast<const float *>(s), ss,
                     reinterpret_cast<float *>(d), ds);
    }

    static void
    emit(const int32_t *acc, int64_t n, int64_t chan, const Requant &rq,
         int8_t *out)
    {
        if (n == 8 && vectorEmitOk(rq)) {
            emit8(acc,
                  _mm256_set1_ps(rq.wScales ? rq.wScales[chan] : rq.wScale),
                  _mm256_set1_ps(rq.bias ? rq.bias[chan] : 0.0f),
                  rq.bias != nullptr, rq, out);
            return;
        }
        for (int64_t p = 0; p < n; ++p)
            out[p] = rq.emit(acc[p], chan);
    }
};

void
dwConvAvx2K(const KernelCtx &c)
{
    kutil::dwConv<Avx2F32Lanes, Avx2I32Lanes>(c);
}

} // namespace

namespace detail {

void
registerSimdAvx2Kernels()
{
    // Same partition domains and workspace declarations as the scalar
    // bases — the tier-switch contract the executor relies on.
    PartitionSpec rows{part::outDim0, 8};
    PartitionSpec images{part::outDim0, 1};
    for (OpKind op : {OpKind::MatMul, OpKind::MatMulBiasAct})
        registerKernel(op, "avx2", matmulAvx2K, rows,
                       kutil::matmulWorkspace);
    registerKernel(OpKind::BatchMatMul, "avx2", matmulAvx2K,
                   PartitionSpec{part::outDim0, 1},
                   kutil::matmulWorkspace);
    PartitionSpec tiles{kutil::convTiles, 1};
    for (OpKind op : {OpKind::Conv2d, OpKind::ConvBiasAct})
        registerKernel(op, "avx2", convGemmAvx2K, tiles,
                       kutil::convGemmWorkspace);
    registerKernel(OpKind::Conv2dBwdInput, "avx2", convBwdInputAvx2K,
                   images, kutil::convGemmWorkspace);
    registerKernel(OpKind::Conv2dBwdWeight, "avx2", convBwdWeightAvx2K,
                   PartitionSpec{part::outDim0, 1},
                   kutil::convGemmWorkspace);
    registerKernel(OpKind::FusedAttention, "avx2", fusedAttentionAvx2K,
                   PartitionSpec{part::outRows, 1},
                   kutil::fusedAttentionWorkspace);
    registerKernel(OpKind::QuantMatMul, "avx2", qmatmulAvx2K,
                   rows, kutil::qgemmWorkspace);
    registerKernel(OpKind::QuantConv2d, "avx2", qconvAvx2K,
                   images, kutil::qconvColWorkspace);
    kutil::registerDwConvKernels("avx2", dwConvAvx2K);
}

} // namespace detail
} // namespace pe

#else // PE_NO_SIMD or non-x86: nothing to register.

namespace pe {
namespace detail {

void
registerSimdAvx2Kernels()
{
}

} // namespace detail
} // namespace pe

#endif
