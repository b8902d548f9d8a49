/**
 * @file
 * finetune-mcunet: the paper's headline workload. MCUNet-proxy (batch
 * 8, 32x32, width 0.5), default CompileOptions (numThreads 1, SGD),
 * one closed-loop client. Each iteration runs one full-BP step, then
 * one sparse-BP step (cnnSparseScheme(m, 3, 2)) on the same seeded
 * synthetic-vision batch.
 *
 *   hot call = sparse-BP trainStep
 *   items    = training samples (8 per step)
 *
 * Checks (outside every timed region): the first full-BP steps match
 * EagerEngine steps from the same parameters (loss and updated
 * parameters), the first sparse-BP loss equals the eager loss, every
 * timed loss is finite, and after the timed loop the full-BP program's
 * next loss equals an eager forward over a copy of its trained
 * parameters.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "baseline/eager.h"
#include "bench.h"
#include "data/synthetic.h"
#include "frontend/models.h"
#include "obs/chrome.h"
#include "obs/profile.h"

namespace perfbench {

namespace {

constexpr uint64_t kWeightSeed = 9;
constexpr int kBatches = 16;   ///< distinct input batches, cycled
constexpr int kSetups = 5;     ///< set-ups before and after the loop
constexpr int kCheckSteps = 5; ///< full-BP steps compared to eager
constexpr double kRelTol = 1e-4;
/** Relative L2 distance allowed between the compiled and eager updates
 *  of one step. Typical is 3e-6; a ReLU input near zero that rounds to
 *  the other side shifts every upstream gradient (1.6e-2 at seed 3,
 *  step 2), while a wrong update is off by order 1. */
constexpr double kUpdateTol = 0.1;
constexpr size_t kTraceSpans = 1 << 16;

pe::VisionConfig
visionCfg()
{
    pe::VisionConfig cfg;
    cfg.batch = 8;
    cfg.resolution = 32;
    cfg.width = 0.5;
    return cfg;
}

pe::ModelSpec
buildModel(pe::ParamStore *store)
{
    pe::Rng rng(kWeightSeed);
    return pe::buildMcuNet(visionCfg(), rng, store);
}

/** One set-up: both programs over their own parameter stores, built
 *  from identical initial weights. */
struct Programs {
    std::shared_ptr<pe::ParamStore> fullStore =
        std::make_shared<pe::ParamStore>();
    std::shared_ptr<pe::ParamStore> sparseStore =
        std::make_shared<pe::ParamStore>();
    pe::ModelSpec spec;
    std::unique_ptr<pe::TrainingProgram> full, sparse;
    double compileMs = 0; ///< both compileTraining calls
};

std::unique_ptr<Programs>
setUp()
{
    auto p = std::make_unique<Programs>();
    p->spec = buildModel(p->fullStore.get());
    pe::ModelSpec sparseSpec = buildModel(p->sparseStore.get());
    pe::CompileOptions opt; // defaults: what later changes tune

    int64_t t0 = nowNs();
    p->full.reset(new pe::TrainingProgram(pe::compileTraining(
        p->spec.graph, p->spec.loss, pe::SparseUpdateScheme::full(), opt,
        p->fullStore)));
    p->sparse.reset(new pe::TrainingProgram(pe::compileTraining(
        sparseSpec.graph, sparseSpec.loss,
        pe::cnnSparseScheme(sparseSpec, 3, 2), opt, p->sparseStore)));
    p->compileMs = msSince(t0);
    return p;
}

std::unordered_map<std::string, pe::Tensor>
feeds(const pe::Batch &b)
{
    return {{"x", b.x}, {"y", b.y}};
}

bool
agrees(double got, double want)
{
    return std::isfinite(got) &&
           std::fabs(got - want) <= kRelTol * std::max(1.0, std::fabs(want));
}

/** Timings of one measured phase. */
struct Phase {
    Samples sparse;
    std::vector<double> fullMs;
    int64_t steps = 0, badLosses = 0;
};

Phase
measure(Programs &p, const std::vector<pe::Batch> &batches,
        double seconds, int64_t maxIters, ClientTrace &ct)
{
    Phase ph;
    const int64_t deadline =
        nowNs() + static_cast<int64_t>(seconds * 1e9);
    for (int64_t i = 0; nowNs() < deadline && i < maxIters; ++i) {
        auto f = feeds(batches[static_cast<size_t>(i) % batches.size()]);
        float lf = 0, ls = 0;
        double fm = ct.timed("trainStep.full", 0, i,
                             [&] { lf = p.full->trainStep(f); });
        double sm = ct.timed("trainStep.sparse", 0, i,
                             [&] { ls = p.sparse->trainStep(f); });
        ph.fullMs.push_back(fm);
        ph.sparse.add(sm);
        ph.steps += 2;
        ph.badLosses += !std::isfinite(lf) + !std::isfinite(ls);
    }
    return ph;
}

/** Fold one program's traced steps into @p layers.ops. */
pe::ProfileReport
foldProfile(pe::TrainingProgram &prog, Layers &layers)
{
    pe::ProfileReport rep =
        pe::profileTrace(prog.executor(), *prog.executor().trace());
    for (const pe::ProfileOpRow &row : rep.ops) {
        OpTime &t = layers.ops[row.op];
        t.ns += row.totalNs;
        t.flops += row.gflops * static_cast<double>(row.totalNs);
    }
    return rep;
}

} // namespace

void
runFinetune(const Args &args, Result &r)
{
    ClientTrace ct(args.trace);
    const pe::VisionConfig cfg = visionCfg();
    pe::SyntheticVision task(args.seed, cfg.numClasses, cfg.channels,
                             cfg.resolution);
    pe::Rng dataRng(args.seed);
    std::vector<pe::Batch> batches;
    for (int i = 0; i < kBatches; ++i)
        batches.push_back(task.sample(cfg.batch, dataRng));

    EndToEnd e2e;
    std::unique_ptr<Programs> p =
        setUpTimes(args.trace ? 1 : kSetups, "compileTraining x2", ct,
                   e2e.setupS, setUp);
    e2e.arenaBytes =
        p->full->report().arenaBytes + p->sparse->report().arenaBytes;

    // Pre-check, also the warm-up: each full-BP step against an eager
    // step from the same parameters (loss, then the whole update), and
    // the first sparse-BP loss against the first eager loss. Both
    // engines restart from the compiled parameters every step: free
    // running trajectories drift apart by rounding in the first,
    // chaotic steps of training.
    {
        auto eagerStore = std::make_shared<pe::ParamStore>();
        pe::ModelSpec em = buildModel(eagerStore.get());
        pe::EagerEngine eager(em.graph, em.loss, eagerStore,
                              pe::CompileOptions{}.optim);
        std::vector<std::string> names;
        for (const auto &[name, t] : eagerStore->all())
            names.push_back(name);
        for (int i = 0; i < kCheckSteps; ++i) {
            std::vector<pe::Tensor> before;
            for (const std::string &n : names) {
                before.push_back(p->fullStore->get(n).clone());
                eagerStore->set(n, before.back().clone());
            }
            auto f = feeds(batches[static_cast<size_t>(i)]);
            double want = eager.trainStep(f);
            double got = p->full->trainStep(f);
            if (!agrees(got, want))
                r.fail(1, "full-BP step " + std::to_string(i) + " loss " +
                              std::to_string(got) + " vs eager " +
                              std::to_string(want));
            // Relative L2 distance between the two steps' updates, over
            // all parameters.
            double diff = 0, norm = 0;
            for (size_t k = 0; k < names.size(); ++k) {
                const pe::Tensor &c = p->fullStore->get(names[k]);
                const pe::Tensor &e = eagerStore->get(names[k]);
                for (int64_t j = 0; j < c.size(); ++j) {
                    double ue = e[j] - before[k][j];
                    diff += (c[j] - e[j]) * (c[j] - e[j]);
                    norm += ue * ue;
                }
            }
            if (!(std::sqrt(diff) <= kUpdateTol * std::sqrt(norm)))
                r.fail(1, "full-BP step " + std::to_string(i) +
                              " parameter update differs from eager");
            if (i == 0) {
                double s = p->sparse->trainStep(f);
                if (!agrees(s, want))
                    r.fail(1, "first sparse-BP loss " + std::to_string(s) +
                                  " vs eager " + std::to_string(want));
                r.attempted += 1;
            }
        }
        r.attempted += kCheckSteps;
    }

    Phase timed;
    Layers layers;
    if (!args.trace) {
        timed = measure(*p, batches, args.seconds, INT64_MAX, ct);
    } else {
        // Untraced half, then the same loop with both executors armed.
        ClientTrace off(false);
        Phase plain =
            measure(*p, batches, args.seconds / 2, INT64_MAX, off);
        p->full->executor().armTrace(kTraceSpans, false);
        p->sparse->executor().armTrace(kTraceSpans, false);
        int64_t stepsPerIter = std::max(p->full->report().kernelSteps,
                                        p->sparse->report().kernelSteps);
        timed = measure(*p, batches, args.seconds / 2,
                        static_cast<int64_t>(kTraceSpans) / stepsPerIter,
                        ct);
        foldProfile(*p->full, layers);
        pe::ProfileReport sp = foldProfile(*p->sparse, layers);
        layers.hotCalls = static_cast<int64_t>(timed.sparse.ms.size());
        layers.execMs = sp.runs ? static_cast<double>(sp.totalNs) / 1e6 /
                                      static_cast<double>(sp.runs)
                                : 0;
        layers.bindOverheadMs = mean(timed.sparse.ms) - layers.execMs;
        layers.traceOverhead =
            median(timed.sparse.ms) / median(plain.sparse.ms) - 1;
        layers.hotMs = plain.sparse.ms;
        layers.itemsPerCall = static_cast<double>(cfg.batch);
        layers.fullStepMs = plain.fullMs;
        layers.compileMs = p->compileMs / 2;
        layers.addReport(p->full->report());
        layers.addReport(p->sparse->report());
        r.attempted += plain.steps;
        if (plain.badLosses)
            r.fail(plain.badLosses, "non-finite training loss");

        pe::exportChromeTrace(traceFile("finetune-mcunet.sparse.json"),
                              p->sparse->executor(),
                              *p->sparse->executor().trace());
        pe::exportChromeTrace(traceFile("finetune-mcunet.full.json"),
                              p->full->executor(),
                              *p->full->executor().trace());
        ct.save(traceFile("finetune-mcunet.client.json"));
    }
    r.attempted += timed.steps;
    if (timed.badLosses)
        r.fail(timed.badLosses, "non-finite training loss");

    // Post-check: the trained full-BP state against an eager forward
    // over a copy of the same parameters.
    {
        auto copy = std::make_shared<pe::ParamStore>();
        for (const auto &[name, t] : p->fullStore->all())
            copy->set(name, t.clone());
        pe::EagerEngine eager(p->spec.graph, p->spec.loss, copy,
                              pe::CompileOptions{}.optim);
        auto f = feeds(batches[0]);
        double want = eager.forward(f, p->spec.loss)[0];
        double got = p->full->trainStep(f);
        r.attempted += 1;
        if (!agrees(got, want))
            r.fail(1, "trained full-BP loss " + std::to_string(got) +
                          " vs eager " + std::to_string(want));
    }

    if (args.trace) {
        layers.report(r);
        return;
    }
    p.reset();
    setUpTimes(kSetups, "compileTraining x2", ct, e2e.setupS, setUp);
    e2e.hot = timed.sparse;
    e2e.report(r);
}

} // namespace perfbench
