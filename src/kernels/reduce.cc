/**
 * @file
 * Reduction kernels (sum / mean over an axis set).
 *
 * Written in gather form: each output slot walks its reduced
 * subspace in lexicographic order — the same per-slot accumulation
 * order as the older scatter loop (input indices hit a slot in
 * ascending order either way), so results are bit-identical, and
 * slots are independent, which lets the kernel partition over the
 * flattened output.
 *
 * The reduced dims after the last kept dim are the innermost ones, so
 * they form one contiguous run (the H*W plane of a bias gradient over
 * NCHW axes {0, 2, 3}). The walk adds that run directly and steps the
 * odometer only over the reduced dims before it: the same elements in
 * the same order.
 */

#include <cstring>

#include "kernels/kernel.h"

namespace pe {
namespace {

void
reduce(const KernelCtx &c, bool mean)
{
    const Shape &xs = *c.inShapes[0];
    auto axes = c.node->attrs.getInts("axes");
    std::vector<bool> reduced(xs.size(), false);
    int64_t reduce_count = 1;
    for (int64_t a : axes) {
        reduced[a] = true;
        reduce_count *= xs[a];
    }
    auto xstrides = rowMajorStrides(xs);

    // Split dims into kept (they index the output, row-major) and
    // reduced (the per-slot accumulation walk), preserving dim order;
    // the innermost reduced dims fold into one contiguous run.
    std::vector<int64_t> kext, kstr, rext, rstr;
    size_t inner = xs.size();
    while (inner > 0 && reduced[inner - 1])
        --inner;
    int64_t run = 1;
    for (size_t d = inner; d < xs.size(); ++d)
        run *= xs[d];
    for (size_t d = 0; d < inner; ++d) {
        if (reduced[d]) {
            rext.push_back(xs[d]);
            rstr.push_back(xstrides[d]);
        } else {
            kext.push_back(xs[d]);
            kstr.push_back(xstrides[d]);
        }
    }
    std::vector<int64_t> ostr(kext.size(), 1);
    for (size_t d = kext.size(); d-- > 1;)
        ostr[d - 1] = ostr[d] * kext[d];

    int64_t lo = c.begin, hi = partitionEnd(c, numel(*c.outShape));
    float inv = 1.0f / static_cast<float>(reduce_count);
    std::vector<int64_t> coord(rext.size(), 0);
    for (int64_t oi = lo; oi < hi; ++oi) {
        int64_t rem = oi, base = 0;
        for (size_t d = 0; d < kext.size(); ++d) {
            int64_t k = rem / ostr[d];
            rem -= k * ostr[d];
            base += k * kstr[d];
        }
        float acc = 0;
        std::fill(coord.begin(), coord.end(), 0);
        int64_t off = 0;
        for (;;) {
            const float *p = c.in[0] + base + off;
            for (int64_t t = 0; t < run; ++t)
                acc += p[t];
            // Odometer over the reduced dims, innermost fastest.
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
        c.out[oi] = mean ? acc * inv : acc;
    }
}

void
reduceSumK(const KernelCtx &c)
{
    reduce(c, false);
}

void
reduceMeanK(const KernelCtx &c)
{
    reduce(c, true);
}

} // namespace

namespace detail {

void
registerReduceKernels()
{
    PartitionSpec slots{part::outElems, 16};
    registerKernel(OpKind::ReduceSum, "", reduceSumK, slots);
    registerKernel(OpKind::ReduceMean, "", reduceMeanK, slots);
}

} // namespace detail
} // namespace pe
