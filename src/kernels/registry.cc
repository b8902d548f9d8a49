#include "kernels/kernel.h"

#include <map>
#include <stdexcept>

#include "hw/cpu_features.h"

namespace pe {

namespace {

using Key = std::pair<OpKind, std::string>;

std::map<Key, KernelInfo> &
registry()
{
    static std::map<Key, KernelInfo> r;
    return r;
}

} // namespace

void
registerKernel(OpKind op, const std::string &variant, KernelFn fn,
               PartitionSpec part, WorkspaceFn workspace)
{
    registry()[{op, variant}] = {fn, part, workspace, false};
}

namespace part {

int64_t
outElems(const KernelCtx &c)
{
    return numel(*c.outShape);
}

int64_t
outRows(const KernelCtx &c)
{
    return numel(*c.outShape) / c.outShape->back();
}

int64_t
outDim0(const KernelCtx &c)
{
    return (*c.outShape)[0];
}

int64_t
in1Elems(const KernelCtx &c)
{
    return numel(*c.inShapes[1]);
}

} // namespace part

namespace detail {

// Declared here, defined one per kernel translation unit. A static
// library can silently drop TUs whose symbols are never referenced, so
// registration is pulled in explicitly instead of relying on static
// initializers.
void registerElementwiseKernels();
void registerMatmulKernels();
void registerConvKernels();
void registerWinogradKernels();
void registerPoolKernels();
void registerSoftmaxKernels();
void registerAttentionKernels();
void registerNormKernels();
void registerEmbeddingKernels();
void registerLossKernels();
void registerReduceKernels();
void registerShapeOpKernels();
void registerOptimApplyKernels();
void registerQuantizedKernels();
void registerSimdAvx2Kernels();
void registerSimdNeonKernels();

void
ensureKernelsRegistered()
{
    static const bool done = [] {
        registerElementwiseKernels();
        registerMatmulKernels();
        registerConvKernels();
        registerWinogradKernels();
        registerPoolKernels();
        registerSoftmaxKernels();
        registerAttentionKernels();
        registerNormKernels();
        registerEmbeddingKernels();
        registerLossKernels();
        registerReduceKernels();
        registerShapeOpKernels();
        registerOptimApplyKernels();
        registerQuantizedKernels();
#ifndef PE_NO_SIMD
        // Tier variants register only when the RUNNING host can
        // execute them, so hasKernelVariant(op, "avx2") is also a
        // capability check and a direct lookup can never bind an
        // illegal instruction.
        if (cpuFeatures().avx2)
            registerSimdAvx2Kernels();
        if (cpuFeatures().neon)
            registerSimdNeonKernels();
#endif
        return true;
    }();
    (void)done;
}

} // namespace detail

namespace {
int g_tierOverride = -1; ///< setSimdTierForTesting; -1 = no override
} // namespace

void
setSimdTierForTesting(int tier)
{
    g_tierOverride = tier;
}

SimdTier
hostSimdTier()
{
    if (g_tierOverride >= 0)
        return static_cast<SimdTier>(g_tierOverride);
#ifdef PE_NO_SIMD
    return SimdTier::Scalar;
#else
    if (cpuFeatures().avx2)
        return SimdTier::Avx2;
    if (cpuFeatures().neon)
        return SimdTier::Neon;
    return SimdTier::Scalar;
#endif
}

SimdTier
variantTier(const std::string &variant)
{
    if (variant == simdTierName(SimdTier::Avx2))
        return SimdTier::Avx2;
    if (variant == simdTierName(SimdTier::Neon))
        return SimdTier::Neon;
    return SimdTier::Scalar;
}

std::string
scalarVariantOf(const std::string &variant)
{
    return variantTier(variant) == SimdTier::Scalar ? variant : "";
}

std::string
resolveTierVariant(OpKind op, const std::string &variant, SimdTier tier)
{
    std::string base = scalarVariantOf(variant);
    if (base.empty() && tier != SimdTier::Scalar &&
        hasKernelVariant(op, simdTierName(tier)))
        return simdTierName(tier);
    return base;
}

KernelInfo
lookupKernelInfo(OpKind op, const std::string &variant)
{
    detail::ensureKernelsRegistered();
    auto it = registry().find({op, variant});
    bool fell_back = false;
    if (it == registry().end() && !variant.empty()) {
        it = registry().find({op, ""});
        fell_back = it != registry().end();
    }
    if (it == registry().end()) {
        throw std::runtime_error(std::string("no kernel for op ") +
                                 opName(op));
    }
    KernelInfo info = it->second;
    info.fellBack = fell_back;
    return info;
}

KernelFn
lookupKernel(OpKind op, const std::string &variant)
{
    return lookupKernelInfo(op, variant).fn;
}

bool
hasKernelVariant(OpKind op, const std::string &variant)
{
    detail::ensureKernelsRegistered();
    return registry().count({op, variant}) > 0;
}

WorkspaceSpec
kernelWorkspace(const Graph &g, const Node &n, const std::string &variant)
{
    KernelInfo info = lookupKernelInfo(n.op, variant);
    return info.workspace ? info.workspace(g, n) : WorkspaceSpec{};
}

} // namespace pe
