/**
 * @file
 * Shared pieces of the perfbench binary: the command line, the result
 * record printed as the last stdout line, latency statistics, the
 * end-to-end and per-layer metric sets every workload reports, and the
 * client-side span log the traced run writes out.
 *
 * Every workload prints the SAME metric names (BENCHMARK.json lists them):
 * end-to-end latency is defined per workload through the workload's
 * "hot call" (see README.md), and per-layer metrics a workload has no
 * layer for read 0.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "serve/serving.h"

namespace perfbench {

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** Path of span file @p name of the traced run, under the checkout's
 *  build directory (created on first use). */
std::string traceFile(const std::string &name);

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** What one run prints as its last line. */
struct Result {
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record @p n failed operations (an output check that did not
     *  hold); the run then reports correct = false. */
    void fail(int64_t n, const std::string &why);

    std::string json() const;
};

/** steady_clock nanoseconds (the library's trace timebase). */
int64_t nowNs();

double msSince(int64_t startNs);

/** Linear-interpolated quantile of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

double median(const std::vector<double> &v);

double mean(const std::vector<double> &v);

/** Process peak resident set, MB (getrusage). */
double peakRssMb();

/** CPUs this process may run on (what `nproc` prints). */
int usableCpus();

/**
 * The benchmark's own spans around its calls into the library (the
 * traced run only): name, start, end, the lane (client thread) that
 * made the call and the request/conversation id it belongs to. Kept
 * in memory, written as Chrome trace JSON when the run ends.
 */
class ClientTrace
{
  public:
    explicit ClientTrace(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    void record(const char *name, int lane, int64_t id, int64_t startNs,
                int64_t endNs);

    /** Time @p fn; record a span when enabled. Returns elapsed ms. */
    double timed(const char *name, int lane, int64_t id,
                 const std::function<void()> &fn);

    void merge(const ClientTrace &other);

    bool save(const std::string &path) const;

  private:
    struct Span {
        const char *name;
        int lane;
        int64_t id;
        int64_t startNs;
        int64_t durNs;
    };
    bool enabled_;
    std::vector<Span> spans_;
};

/** Call durations, with the time each call returned. */
struct Samples {
    std::vector<double> ms;
    std::vector<int64_t> endNs;

    void add(double callMs)
    {
        ms.push_back(callMs);
        endNs.push_back(nowNs());
    }
    void append(const Samples &other);
};

/**
 * Sustained latency: the 90th percentile, over the run's one-second
 * windows, of each window's median call time. A median alone moves
 * with the host's speed phases on finetune, and a p90 with co-tenant
 * preemption on classify; this statistic holds on both (README.md).
 */
double sustainedMs(const Samples &s);

/** End-to-end measurements, tracing off. */
struct EndToEnd {
    std::vector<double> setupS; ///< one entry per repeated set-up
    int64_t arenaBytes = 0;     ///< summed planned arena extents
    Samples hot;                ///< the workload's hot call

    void report(Result &r) const;
};

/**
 * Run @p make (one set-up of the workload, returning an owning
 * pointer) @p n times, keeping the last result; each set-up's seconds
 * are appended to @p setupS and recorded as a @p span in @p ct.
 */
template <class Make>
auto
setUpTimes(int n, const char *span, ClientTrace &ct,
           std::vector<double> &setupS, Make make) -> decltype(make())
{
    decltype(make()) kept;
    for (int i = 0; i < n; ++i) {
        kept.reset();
        int64_t t0 = nowNs();
        kept = make();
        int64_t t1 = nowNs();
        ct.record(span, 0, static_cast<int64_t>(setupS.size()), t0, t1);
        setupS.push_back(static_cast<double>(t1 - t0) / 1e9);
    }
    return kept;
}

/** Kernel time and analytical FLOPs of one op kind. */
struct OpTime {
    int64_t ns = 0;
    double flops = 0;
};

/** Per-layer measurements from the traced run (0 = no such layer). */
struct Layers {
    // engine: compile pipeline
    double compileMs = 0; ///< mean per program or bucket
    int64_t kernelSteps = 0, fusions = 0, prunedNodes = 0,
            backwardNodes = 0, kernelFallbacks = 0, simdSteps = 0;
    // runtime: planner, executor, arena
    int64_t peakLiveBytes = 0, workspaceBytes = 0;
    double execMs = 0;        ///< summed step spans per hot-program run
    double bindOverheadMs = 0; ///< hot call wall - execMs
    // kernels
    std::map<std::string, OpTime> ops;
    int64_t hotCalls = 0; ///< hot calls the folded spans cover
    // serve
    double queueWaitUsP50 = 0, runsPerRequest = 0, coalesceRate = 0,
           paddedRowShare = 0, runUsPrefill = 0, runUsDecode = 0,
           serveOverheadUs = 0;
    int64_t cacheBytes = 0, serveFailed = 0, rejected = 0;
    // untraced half: figures the end-to-end set does not gate
    std::vector<double> hotMs, fullStepMs, ttftMs;
    double itemsPerCall = 1; ///< samples / tokens / images per hot call
    int clients = 1;         ///< closed-loop clients issuing hot calls
    // tracing: traced hot-call p50 / untraced p50 - 1
    double traceOverhead = 0;

    /** Sum one program's (or bucket's) compile and plan facts. */
    void addReport(const pe::CompileReport &rep);

    /** The serving counters: runs, coalescing, padding, failures and,
     *  on generative engines, mean prefill / decode plan run time. */
    void addServeStats(const pe::ServeStats &st);

    void report(Result &r) const;
};

/**
 * After a traced serving phase: write @p engine's Chrome trace and
 * bucket plans as traceFile(@p name + ...), and fold them into
 * @p layers: kernel time by op (FLOPs from the plans), the request
 * queue wait and the serving counters. Returns the summed kernel step
 * time per bucket label ("b<batch>", the export's own key).
 */
std::map<std::string, int64_t> foldServeTrace(
    const pe::ServingEngine &engine, const std::string &name,
    Layers &layers);

// Workloads: each fills @p r (end-to-end metrics, or per-layer ones
// when args.trace) and runs its output checks.
void runFinetune(const Args &args, Result &r);
void runChat(const Args &args, Result &r);
void runClassify(const Args &args, Result &r);

} // namespace perfbench
