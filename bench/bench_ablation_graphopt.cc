/**
 * @file
 * Section 3.2 ablation: what each training-graph optimization
 * contributes — operator fusion, memory-aware reordering + in-place
 * update, Winograd binding for frozen convs. Both host-measured step
 * time and planner memory are reported. (GEMMs have no ablation: every
 * GEMM runs the one GEMM kernel at every size.)
 *
 * Expected shape: each optimization individually worth a few
 * percent to ~1.2x (paper's claim), reordering dominating memory.
 */

#include <chrono>

#include "bench_common.h"

using namespace pe;
using namespace pe::bench;

namespace {

double
measureStepMs(const ModelSpec &m, const SparseUpdateScheme &scheme,
              const CompileOptions &opt, int iters)
{
    auto store = std::make_shared<ParamStore>();
    Rng rng(5);
    // Rebuild with initialization into this store.
    VisionConfig cfg;
    cfg.batch = 4;
    cfg.resolution = 16;
    cfg.width = 0.25;
    cfg.blocks = 4;
    ModelSpec fresh = buildResNet(cfg, rng, store.get());
    auto prog = compileTraining(fresh.graph, fresh.loss, scheme, opt,
                                store);
    SyntheticVision task = SyntheticVision::pretrain(3, 16);
    Rng dr(3);
    Batch b = task.sample(4, dr);
    prog.trainStep({{"x", b.x}, {"y", b.y}}); // warm up
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        prog.trainStep({{"x", b.x}, {"y", b.y}});
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           iters;
    (void)m;
}

} // namespace

int
main()
{
    std::printf("=== Section 3.2 ablation: training-graph "
                "optimizations ===\n\n");
    int iters = scaledSteps(15);

    Rng rng(5);
    VisionConfig cfg;
    cfg.batch = 4;
    cfg.resolution = 16;
    cfg.width = 0.25;
    cfg.blocks = 4;
    ModelSpec m = buildResNet(cfg, rng, nullptr);
    SparseUpdateScheme sparse = cnnSparseScheme(m, 2, 2);

    struct Config {
        std::string name;
        CompileOptions opt;
    };
    CompileOptions all;
    CompileOptions none = all;
    none.fuse = none.reorder = none.winograd = false;
    CompileOptions no_fuse = all;
    no_fuse.fuse = false;
    CompileOptions no_reorder = all;
    no_reorder.reorder = false;
    CompileOptions no_wino = all;
    no_wino.winograd = false;

    std::vector<Config> configs = {
        {"all-opts", all},         {"no-fusion", no_fuse},
        {"no-reorder", no_reorder}, {"no-winograd", no_wino},
        {"none", none},
    };

    printRow({"config", "step-ms", "vs-all", "kernels", "arena",
              "fusions", "winograd"},
             12);
    double base_ms = 0;
    for (const Config &c : configs) {
        CompileOptions opt = c.opt;
        opt.optim = OptimConfig::sgd(0.01);
        double ms = measureStepMs(m, sparse, opt, iters);
        if (c.name == "all-opts")
            base_ms = ms;
        CompiledGraph cg = compileGraphOnly(m.graph, m.loss, sparse,
                                            opt);
        printRow({c.name, fmt(ms, 2), fmt(ms / base_ms, 2) + "x",
                  std::to_string(cg.report.kernelSteps),
                  fmtBytes(cg.report.arenaBytes),
                  std::to_string(cg.report.fusions),
                  std::to_string(cg.report.backend.winogradBound)},
                 12);
    }

    std::printf("\nMemory-only ablation (reordering + in-place "
                "update), MobileNetV2 proxy, full-BP:\n");
    printRow({"schedule", "arena"}, 20);
    VisionConfig mb;
    mb.batch = 8;
    mb.resolution = 16;
    mb.width = 0.4;
    mb.blocks = 6;
    ModelSpec mbv = buildMobileNetV2(mb, rng, nullptr);
    CompileOptions opt;
    CompiledGraph cg = compileGraphOnly(mbv.graph, mbv.loss,
                                        SparseUpdateScheme::full(), opt);
    printRow({"natural-order", fmtBytes(cg.report.arenaBytesNoReorder)},
             20);
    printRow({"reordered", fmtBytes(cg.report.arenaBytes)}, 20);
    std::printf("reordering saves %.1fx activation memory\n",
                static_cast<double>(cg.report.arenaBytesNoReorder) /
                    static_cast<double>(cg.report.arenaBytes));
    return 0;
}
