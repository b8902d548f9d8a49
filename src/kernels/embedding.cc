/**
 * @file
 * Embedding lookup and its scatter-add gradient. Token ids are
 * integer-valued floats (see core/tensor.h). An id outside [0, V)
 * throws std::out_of_range before it is cast or used as a row, so a
 * bad token fails its own request instead of reading or writing past
 * the table.
 */

#include <cstring>
#include <stdexcept>
#include <string>

#include "kernels/kernel.h"

namespace pe {
namespace {

/** Table row of token id @p v; checked before the cast, since casting
 *  NaN or an out-of-range float to an integer is undefined. */
int64_t
tokenRow(float v, int64_t vocab)
{
    if (!(v >= 0.0f && v < static_cast<float>(vocab)))
        throw std::out_of_range("Embedding: token id " +
                                std::to_string(v) +
                                " is outside the vocabulary [0, " +
                                std::to_string(vocab) + ")");
    return static_cast<int64_t>(v);
}

void
embeddingK(const KernelCtx &c)
{
    const Shape &ts = *c.inShapes[0]; // [V, D]
    const Shape &ids = *c.inShapes[1];
    int64_t d = ts[1];
    int64_t n = numel(ids);
    for (int64_t i = 0; i < n; ++i) {
        int64_t id = tokenRow(c.in[1][i], ts[0]);
        std::memcpy(c.out + i * d, c.in[0] + id * d, sizeof(float) * d);
    }
}

void
embeddingGradK(const KernelCtx &c)
{
    const Shape &ids = *c.inShapes[0];
    const Shape &dys = *c.inShapes[1];
    int64_t d = dys.back();
    int64_t n = numel(ids);
    int64_t vocab = (*c.outShape)[0];
    std::memset(c.out, 0, sizeof(float) * numel(*c.outShape));
    for (int64_t i = 0; i < n; ++i) {
        int64_t id = tokenRow(c.in[0][i], vocab);
        const float *g = c.in[1] + i * d;
        float *dst = c.out + id * d;
        for (int64_t j = 0; j < d; ++j)
            dst[j] += g[j];
    }
}

} // namespace

namespace detail {

void
registerEmbeddingKernels()
{
    registerKernel(OpKind::Embedding, "", embeddingK);
    registerKernel(OpKind::EmbeddingGrad, "", embeddingGradK);
}

} // namespace detail
} // namespace pe
