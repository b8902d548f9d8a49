#include "engine/engine.h"

#include <algorithm>
#include <stdexcept>

namespace pe {

void
finalizeExecReport(CompileReport &report, const Executor &ex)
{
    report.kernelSteps = ex.numSteps();
    const MemoryPlan &mp = ex.memoryPlan();
    report.arenaBytes = mp.arenaBytes;
    report.workspaceBytes = mp.workspaceBytes;
    report.paramBytes = mp.paramBytes;
    report.constBytes = mp.constBytes;
    report.totalBytes = mp.totalBytes();
    report.memoryTimeline = mp.liveBytesAtStep;
    report.peakLiveBytes = mp.peakLiveBytes;
    report.arenaBytesByDtype = mp.arenaValueBytesByDtype;
    report.constBytesByDtype = mp.constBytesByDtype;
    report.shardedSteps = ex.shardedSteps();
    report.serializedByWorkspace = ex.serializedByWorkspace();
    report.simdTier = simdTierName(ex.simdTier());
    report.simdSteps = ex.simdSteps();
    report.stepTiers = ex.stepTiers();
}

TrainingProgram::TrainingProgram(Graph g, int loss_id,
                                 std::vector<int> order,
                                 std::shared_ptr<ParamStore> store,
                                 ExecOptions exec_options,
                                 CompileReport report, Graph apply_graph,
                                 int grad_accum_steps,
                                 std::vector<std::string> accum_buffers)
    : graph_(std::move(g)), lossId_(loss_id), store_(std::move(store)),
      applyGraph_(std::move(apply_graph)),
      gradAccumSteps_(grad_accum_steps),
      accumBuffers_(std::move(accum_buffers)),
      report_(std::move(report))
{
    executor_ = std::make_unique<Executor>(graph_, std::move(order),
                                           *store_,
                                           std::move(exec_options));
    if (applyGraph_.numNodes() > 0) {
        applyExecutor_ = std::make_unique<Executor>(
            applyGraph_, naturalOrder(applyGraph_), *store_);
    }
    finalizeExecReport(report_, *executor_);
}

float
TrainingProgram::trainStep(
    const std::unordered_map<std::string, Tensor> &feeds)
{
    for (const auto &[name, t] : feeds)
        executor_->bindInput(name, t);
    executor_->run();
    float loss = executor_->fetch(lossId_)[0];
    if (applyExecutor_ && ++microStep_ % gradAccumSteps_ == 0) {
        applyExecutor_->run();
        for (const std::string &name : accumBuffers_)
            store_->get(name).fill(0.0f);
    }
    return loss;
}

InferenceProgram::InferenceProgram(Graph g,
                                   std::shared_ptr<ParamStore> store,
                                   ExecOptions exec_options,
                                   CompileReport report,
                                   std::vector<int> order)
    : graph_(std::move(g)), store_(std::move(store)),
      report_(std::move(report))
{
    if (order.empty())
        order = reorderForMemory(graph_);
    executor_ = std::make_unique<Executor>(graph_, std::move(order),
                                           *store_,
                                           std::move(exec_options));
    finalizeExecReport(report_, *executor_);
    report_.kernelFallbacks = executor_->fallbackCount();
    report_.fallbackKernels = executor_->fallbackKernels();
}

InferenceProgram::InferenceProgram(Graph g,
                                   std::shared_ptr<ParamStore> store,
                                   ProgramArtifact art,
                                   CompileReport report)
    : graph_(std::move(g)), store_(std::move(store)),
      report_(std::move(report))
{
    executor_ =
        std::make_unique<Executor>(graph_, std::move(art), *store_);
    finalizeExecReport(report_, *executor_);
    report_.kernelFallbacks = executor_->fallbackCount();
    report_.fallbackKernels = executor_->fallbackKernels();
}

std::vector<Tensor>
InferenceProgram::run(
    const std::unordered_map<std::string, Tensor> &feeds)
{
    for (const auto &[name, t] : feeds)
        executor_->bindInput(name, t);
    executor_->run();
    std::vector<Tensor> outs;
    outs.reserve(graph_.outputs().size());
    for (int id : graph_.outputs())
        outs.push_back(executor_->fetch(id));
    return outs;
}

std::vector<std::vector<Tensor>>
InferenceProgram::runBatch(
    const std::vector<std::unordered_map<std::string, Tensor>> &feeds)
{
    std::vector<std::vector<Tensor>> results;
    results.reserve(feeds.size());
    // Resolve feed names to input node ids once, from the first item
    // (every item must feed the same inputs — they are one batch).
    std::vector<std::pair<std::string, int>> slots;
    if (!feeds.empty()) {
        for (const auto &[name, t] : feeds.front()) {
            int id = executor_->inputId(name);
            if (id < 0)
                throw std::runtime_error("runBatch: no input named " +
                                         name);
            slots.emplace_back(name, id);
        }
    }
    for (const auto &feed : feeds) {
        if (feed.size() != slots.size())
            throw std::runtime_error(
                "runBatch: feed sets must bind the same inputs");
        for (const auto &[name, id] : slots) {
            auto it = feed.find(name);
            if (it == feed.end())
                throw std::runtime_error(
                    "runBatch: feed sets must bind the same inputs "
                    "(missing " +
                    name + ")");
            executor_->bindInputById(id, it->second);
        }
        executor_->run();
        std::vector<Tensor> outs;
        outs.reserve(graph_.outputs().size());
        for (int id : graph_.outputs())
            outs.push_back(executor_->fetch(id));
        results.push_back(std::move(outs));
    }
    return results;
}

CompiledGraph
compileGraphOnly(const Graph &forward, int loss_id,
                 const SparseUpdateScheme &scheme,
                 const CompileOptions &options, const ParamStore *store)
{
    CompiledGraph out;
    Graph g = forward;
    CompileReport report;
    report.forwardNodes = g.numNodes();
    report.precision = options.precision;

    // Name the loss so its id can be tracked across graph compaction.
    g.node(loss_id).name = "__loss__";
    g.outputs().clear();
    g.markOutput(loss_id);

    // 1. Sparse update scheme: trainable flags + channel ratios.
    report.trainableTensors = scheme.apply(g);

    // 2. Compile-time autodiff (prunes frozen branches by never
    //    emitting them).
    BackwardResult bwd = buildBackward(g, loss_id);
    report.backwardNodes = bwd.nodesEmitted;

    // 3. In-place optimizer emission — or, under gradient
    //    accumulation, scaled AccumGrad into persistent buffers (the
    //    optimizer then lives in a separate tiny apply program).
    if (options.gradAccumSteps > 1) {
        std::vector<std::pair<int, int>> pairs(bwd.paramGrads.begin(),
                                               bwd.paramGrads.end());
        std::sort(pairs.begin(), pairs.end());
        double inv = 1.0 / static_cast<double>(options.gradAccumSteps);
        for (auto [pid, gid] : pairs) {
            const std::string base = g.node(pid).name;
            const Shape gshape = g.node(gid).shape;
            int gacc = g.param(gshape, base + ".gacc", false);
            Attrs sa;
            sa.set("alpha", inv);
            int scaled = g.add(OpKind::Scale, {gid}, std::move(sa));
            int acc = g.add(OpKind::AccumGrad, {gacc, scaled}, {},
                            base + ".gaccum");
            g.markOutput(acc);
        }
    } else {
        emitOptimizer(g, options.optim, bwd.paramGrads);
    }

    // 4. Graph optimizations on the unified IR.
    simplify(g);
    if (options.foldConstants)
        report.folded = constantFold(g);
    if (options.fuse) {
        report.fusions = fuseOperators(g);
        if (options.fuseAttention)
            report.fusions += fuseAttention(g);
    }
    report.prunedNodes = dce(g);

    // Re-locate the loss node after compaction.
    auto findLoss = [&g]() {
        for (int i = 0; i < g.numNodes(); ++i) {
            if (g.node(i).name == "__loss__")
                return i;
        }
        throw std::runtime_error("compileGraphOnly: loss eliminated");
    };
    int loss = findLoss();

    // 4b. Quantization: rewrite the forward region (the loss node's
    //     ancestor cone) to int8 or f16 storage. Running after
    //     autodiff+fusion is what keeps the backward graph fp32: the
    //     backward ops simply pick up per-use Dequantize reads of the
    //     now-int8 stored activations (straight-through estimates).
    //     Trainable weights keep fp32 masters and are re-quantized
    //     each step, so the in-place optimizer still works.
    if (options.precision != Precision::F32) {
        QuantizeOptions qo;
        qo.precision = options.precision;
        qo.root = loss;
        qo.store = store;
        qo.prequantizeFrozen = false; // training graphs keep masters
        quantizePass(g, qo, &report.quant);
        dce(g); // sweep values only the fp32 forward consumed
        loss = findLoss();
    }

    // 5. Backend switching. Variants are order-independent (they read
    //    shapes and trainability only), and selecting them before
    //    scheduling lets the planner include each kernel's declared
    //    workspace in every number below — the schedule choice, the
    //    reorder ablation, and the reported footprint all see the
    //    same honest arena.
    BackendOptions bopt;
    bopt.enableWinograd = options.winograd;
    out.variants = switchBackends(g, bopt, &report.backend);

    // Surface kernel-library gaps: a selected variant that is not
    // registered will silently run the default at bind time. This is
    // the single source of the report's fallback fields (analysis-only
    // compiles see them too); counting only where a default exists
    // mirrors bind behavior — a missing default throws there instead.
    for (int id = 0; id < g.numNodes(); ++id) {
        const std::string &v = out.variants[id];
        if (!isSourceOp(g.node(id).op) && !v.empty() &&
            !hasKernelVariant(g.node(id).op, v) &&
            hasKernelVariant(g.node(id).op, "")) {
            ++report.kernelFallbacks;
            report.fallbackKernels.push_back(
                std::string(opName(g.node(id).op)) + "/" + v);
        }
    }

    // 6. Scheduling (+ ablation number for the report). The greedy
    //    memory-aware schedule is not guaranteed to beat creation
    //    order on every graph, so plan both and keep the cheaper —
    //    both are computed at compile time anyway. Workspace requests
    //    are node-keyed, so one launch summary serves both orders.
    int threads = options.numThreads <= 0 ? HostDevice::hardwareThreads()
                                          : options.numThreads;
    std::vector<int> order = naturalOrder(g);
    LaunchSummary launches = planLaunches(g, order, out.variants, threads);
    MemoryPlan plan = planMemory(g, order, launches.workspaces);
    report.arenaBytesNoReorder = plan.arenaBytes;
    if (options.reorder) {
        std::vector<int> reordered = reorderForMemory(g);
        MemoryPlan replan = planMemory(g, reordered, launches.workspaces);
        if (replan.arenaBytes < plan.arenaBytes) {
            order = std::move(reordered);
            plan = std::move(replan);
        }
    }

    report.flopsPerStep = g.totalFlops();
    report.arenaBytes = plan.arenaBytes;
    report.workspaceBytes = plan.workspaceBytes;
    report.paramBytes = plan.paramBytes;
    report.constBytes = plan.constBytes;
    report.arenaBytesByDtype = plan.arenaValueBytesByDtype;
    report.constBytesByDtype = plan.constBytesByDtype;
    report.totalBytes = plan.totalBytes();
    report.memoryTimeline = std::move(plan.liveBytesAtStep);
    report.peakLiveBytes = plan.peakLiveBytes;
    report.shardedSteps = launches.shardedSteps;
    report.serializedByWorkspace = launches.serializedByWorkspace;
    report.kernelSteps = 0;
    for (int id : order) {
        if (!isSourceOp(g.node(id).op))
            ++report.kernelSteps;
    }

    out.graph = std::move(g);
    out.lossId = loss;
    out.order = std::move(order);
    out.report = std::move(report);
    return out;
}

TrainingProgram
compileTraining(const Graph &forward, int loss_id,
                const SparseUpdateScheme &scheme,
                const CompileOptions &options,
                std::shared_ptr<ParamStore> store)
{
    if (!store)
        store = std::make_shared<ParamStore>();
    CompiledGraph c =
        compileGraphOnly(forward, loss_id, scheme, options, store.get());
    ExecOptions eopt;
    eopt.variants = std::move(c.variants);
    eopt.numThreads = options.numThreads;
    eopt.forceScalarTier = options.forceScalarTier;

    // Under gradient accumulation, build the small apply program that
    // consumes the ".gacc" buffers every N-th step.
    Graph apply_graph;
    std::vector<std::string> accum_buffers;
    if (options.gradAccumSteps > 1) {
        std::unordered_map<int, int> param_grads;
        for (int id : c.graph.paramIds()) {
            const Node &n = c.graph.node(id);
            const std::string suffix = ".gacc";
            if (n.name.size() <= suffix.size() ||
                n.name.compare(n.name.size() - suffix.size(),
                               suffix.size(), suffix) != 0) {
                continue;
            }
            std::string base =
                n.name.substr(0, n.name.size() - suffix.size());
            int base_id = c.graph.findParam(base);
            int p = apply_graph.param(c.graph.node(base_id).shape, base);
            int gacc = apply_graph.param(n.shape, n.name, false);
            param_grads[p] = gacc;
            accum_buffers.push_back(n.name);
        }
        emitOptimizer(apply_graph, options.optim, param_grads);
    }
    return TrainingProgram(std::move(c.graph), c.lossId,
                           std::move(c.order), std::move(store),
                           std::move(eopt), std::move(c.report),
                           std::move(apply_graph),
                           options.gradAccumSteps,
                           std::move(accum_buffers));
}

CompiledGraph
compileInferenceGraph(const Graph &forward,
                      const std::vector<int> &output_ids,
                      const CompileOptions &options,
                      std::shared_ptr<ParamStore> store)
{
    CompiledGraph out;
    Graph g = forward;
    g.outputs() = output_ids;
    for (int id : g.paramIds())
        g.node(id).trainable = false;

    out.report.forwardNodes = g.numNodes();
    simplify(g);
    if (options.foldConstants)
        out.report.folded = constantFold(g);
    if (options.fuse) {
        out.report.fusions = fuseOperators(g);
        if (options.fuseAttention)
            out.report.fusions += fuseAttention(g);
    }
    out.report.prunedNodes = dce(g);

    out.report.precision = options.precision;

    // Deployment-shaped quantization: every param is frozen here, so
    // weights are pre-quantized into i8 Consts and DCE drops the fp32
    // masters from the graph — and from the reported footprint.
    if (options.precision != Precision::F32) {
        QuantizeOptions qo;
        qo.precision = options.precision;
        qo.root = -1; // whole graph feeds the outputs
        qo.store = store.get();
        qo.prequantizeFrozen = true;
        quantizePass(g, qo, &out.report.quant);
        dce(g);
    }

    BackendOptions bopt;
    bopt.enableWinograd = options.winograd;
    out.variants = switchBackends(g, bopt, &out.report.backend);
    out.order = reorderForMemory(g);
    out.report.flopsPerStep = g.totalFlops();
    out.graph = std::move(g);
    return out;
}

InferenceProgram
compileInference(const Graph &forward,
                 const std::vector<int> &output_ids,
                 const CompileOptions &options,
                 std::shared_ptr<ParamStore> store)
{
    if (!store)
        store = std::make_shared<ParamStore>();

    CompiledGraph c =
        compileInferenceGraph(forward, output_ids, options, store);
    ExecOptions eopt;
    eopt.variants = std::move(c.variants);
    eopt.numThreads = options.numThreads;
    eopt.forceScalarTier = options.forceScalarTier;
    return InferenceProgram(std::move(c.graph), std::move(store),
                            std::move(eopt), std::move(c.report),
                            std::move(c.order));
}

} // namespace pe
