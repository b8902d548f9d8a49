/**
 * @file
 * perfbench binary: parses the command line, checks the workload's
 * thread budget against the host, runs the workload and prints the
 * result object as the last line of stdout. Exits nonzero when an
 * output check fails.
 *
 *   perfbench --workload <finetune-mcunet|chat-llama|classify-mcunet-int8>
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * Run it from the checkout root: the traced run writes its span files
 * to .bench_build/traces/.
 */

#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/chrome.h"
#include "plan/plan.h"

namespace perfbench {

namespace {

/** The op kinds whose kernel time the traced run reports: each
 *  workload's top ops (zeros on workloads that never run them). */
const char *const kOps[] = {
    // finetune-mcunet
    "ConvBiasAct", "Conv2dBwdWeight", "Conv2dBwdInput", "DwConvBiasAct",
    "DwConv2dBwdInput", "DwConv2dBwdWeight", "ReluGrad", "ApplySgd",
    // chat-llama
    "MatMul", "FusedAttention", "Permute", "CacheWrite", "RMSNorm",
    // classify-mcunet-int8
    "QuantConv2d", "QuantDwConv2d", "QuantAdd", "Quantize", "Requantize"};

std::string
fmtNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Value of the JSON string member @p key in the event object @p ev
 *  ("" when absent). The export writes no escapes in these values. */
std::string
stringField(const std::string &ev, const std::string &key)
{
    std::string pat = "\"" + key + "\":\"";
    size_t at = ev.find(pat);
    if (at == std::string::npos)
        return "";
    at += pat.size();
    return ev.substr(at, ev.find('"', at) - at);
}

double
numberField(const std::string &ev, const std::string &key)
{
    std::string pat = "\"" + key + "\":";
    size_t at = ev.find(pat);
    if (at == std::string::npos)
        return 0;
    return std::strtod(ev.c_str() + at + pat.size(), nullptr);
}

} // namespace

void
Result::fail(int64_t n, const std::string &why)
{
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    correct = false;
    failed += n;
}

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " +
               fmtNum(metrics[i].value) + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

int64_t
nowNs()
{
    return pe::traceNowNs();
}

double
msSince(int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) / 1e6;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return 1;
}

void
ClientTrace::record(const char *name, int lane, int64_t id,
                    int64_t startNs, int64_t endNs)
{
    if (enabled_)
        spans_.push_back({name, lane, id, startNs, endNs - startNs});
}

double
ClientTrace::timed(const char *name, int lane, int64_t id,
                   const std::function<void()> &fn)
{
    int64_t t0 = nowNs();
    fn();
    int64_t t1 = nowNs();
    record(name, lane, id, t0, t1);
    return static_cast<double>(t1 - t0) / 1e6;
}

void
ClientTrace::merge(const ClientTrace &other)
{
    spans_.insert(spans_.end(), other.spans_.begin(),
                  other.spans_.end());
}

bool
ClientTrace::save(const std::string &path) const
{
    pe::ChromeTraceJson ct;
    const int pid = 3;
    ct.processName(pid, "perfbench clients");
    for (const Span &s : spans_)
        ct.event(s.name, pid, s.lane, s.startNs, s.durNs,
                 {{"id", std::to_string(s.id)}});
    return ct.save(path);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

void
Samples::append(const Samples &other)
{
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
    endNs.insert(endNs.end(), other.endNs.begin(), other.endNs.end());
}

double
sustainedMs(const Samples &s)
{
    if (s.ms.empty())
        throw std::runtime_error("no call completed");
    const int64_t t0 = *std::min_element(s.endNs.begin(), s.endNs.end());
    std::map<int64_t, std::vector<double>> windows;
    for (size_t i = 0; i < s.ms.size(); ++i)
        windows[(s.endNs[i] - t0) / 1000000000].push_back(s.ms[i]);
    std::vector<double> medians;
    for (const auto &[k, w] : windows)
        if (w.size() >= 3) // drops a short trailing window
            medians.push_back(median(w));
    return medians.empty() ? median(s.ms) : quantile(medians, 0.9);
}

void
EndToEnd::report(Result &r) const
{
    r.add("setup_s", median(setupS), "s");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    r.add("arena_bytes", static_cast<double>(arenaBytes), "bytes");
    r.add("latency_ms_sustained", sustainedMs(hot), "ms");
}

void
Layers::addReport(const pe::CompileReport &rep)
{
    kernelSteps += rep.kernelSteps;
    fusions += rep.fusions;
    prunedNodes += rep.prunedNodes;
    backwardNodes += rep.backwardNodes;
    kernelFallbacks += rep.kernelFallbacks;
    simdSteps += rep.simdSteps;
    peakLiveBytes += rep.peakLiveBytes;
    workspaceBytes += rep.workspaceBytes;
}

void
Layers::addServeStats(const pe::ServeStats &st)
{
    int64_t execRows = 0, padRows = 0, runs[2] = {0, 0}, runNs[2] = {0, 0};
    for (const pe::BucketStats &b : st.buckets) {
        execRows += b.runs * b.batch;
        padRows += b.paddedRows;
        runs[b.decode] += b.runs;
        runNs[b.decode] += b.runNs;
    }
    auto us = [&](int k) {
        return runs[k] ? static_cast<double>(runNs[k]) / 1e3 /
                             static_cast<double>(runs[k])
                       : 0;
    };
    if (st.prefills > 0) { // generative engines only
        runUsPrefill = us(0);
        runUsDecode = us(1);
    }
    runsPerRequest = st.completed ? static_cast<double>(st.runs) /
                                        static_cast<double>(st.completed)
                                  : 0;
    coalesceRate = st.coalesceRate;
    paddedRowShare = execRows ? static_cast<double>(padRows) /
                                    static_cast<double>(execRows)
                              : 0;
    serveFailed = st.failed;
    rejected = st.rejected;
}

void
Layers::report(Result &r) const
{
    r.add("compile_ms", compileMs, "ms");
    r.add("kernel_steps", static_cast<double>(kernelSteps), "count");
    r.add("fusions", static_cast<double>(fusions), "count");
    r.add("pruned_nodes", static_cast<double>(prunedNodes), "count");
    r.add("backward_nodes", static_cast<double>(backwardNodes),
          "count");
    r.add("kernel_fallbacks", static_cast<double>(kernelFallbacks),
          "count");
    r.add("simd_step_share",
          kernelSteps ? static_cast<double>(simdSteps) /
                            static_cast<double>(kernelSteps)
                      : 0,
          "share");
    r.add("peak_live_bytes", static_cast<double>(peakLiveBytes),
          "bytes");
    r.add("workspace_bytes", static_cast<double>(workspaceBytes),
          "bytes");
    r.add("exec_ms", execMs, "ms");
    r.add("bind_overhead_ms", bindOverheadMs, "ms");

    int64_t total = 0;
    for (const auto &[op, t] : ops)
        total += t.ns;
    for (const char *op : kOps) {
        auto it = ops.find(op);
        OpTime t = it == ops.end() ? OpTime{} : it->second;
        std::string key(op);
        r.add("op_ms." + key,
              hotCalls ? static_cast<double>(t.ns) / 1e6 /
                             static_cast<double>(hotCalls)
                       : 0,
              "ms");
        r.add("op_share." + key,
              total ? static_cast<double>(t.ns) /
                          static_cast<double>(total)
                    : 0,
              "share");
        r.add("op_gflops." + key,
              t.ns ? t.flops / static_cast<double>(t.ns) : 0,
              "GFLOP/s");
    }

    r.add("queue_wait_us_p50", queueWaitUsP50, "us");
    r.add("runs_per_request", runsPerRequest, "ratio");
    r.add("coalesce_rate", coalesceRate, "share");
    r.add("padded_row_share", paddedRowShare, "share");
    r.add("run_us.prefill", runUsPrefill, "us");
    r.add("run_us.decode", runUsDecode, "us");
    r.add("serve_overhead_us", serveOverheadUs, "us");
    r.add("cache_bytes", static_cast<double>(cacheBytes), "bytes");
    r.add("failed", static_cast<double>(serveFailed), "count");
    r.add("rejected", static_cast<double>(rejected), "count");

    r.add("latency_ms_p50", quantile(hotMs, 0.5), "ms");
    r.add("latency_ms_p90", quantile(hotMs, 0.9), "ms");
    r.add("items_per_s",
          hotMs.empty() ? 0
                        : clients * itemsPerCall / (mean(hotMs) / 1e3),
          "1/s");
    r.add("full_step_ms_p50", quantile(fullStepMs, 0.5), "ms");
    r.add("full_step_ms_p90", quantile(fullStepMs, 0.9), "ms");
    r.add("ttft_ms_p50", quantile(ttftMs, 0.5), "ms");
    r.add("ttft_ms_p90", quantile(ttftMs, 0.9), "ms");
    r.add("trace_overhead", traceOverhead, "ratio");
}

std::string
traceFile(const std::string &name)
{
    const std::string dir = ".bench_build/traces";
    std::filesystem::create_directories(dir);
    return dir + "/" + name;
}

std::map<std::string, int64_t>
foldServeTrace(const pe::ServingEngine &engine, const std::string &name,
               Layers &layers)
{
    const std::string chromePath = traceFile(name + ".engine.json");
    const std::string planDir = traceFile(name + ".plans");
    engine.exportChromeTrace(chromePath);
    engine.savePlans(planDir);
    const pe::ServeStats st = engine.stats();
    layers.addServeStats(st);

    std::map<std::string, pe::Graph> graphs; // by bucket label
    for (const pe::BucketStats &b : st.buckets) {
        pe::Precision prec = engine.bucketReport(b.batch).precision;
        std::string path =
            planDir + "/" +
            pe::ServingEngine::planFileName(prec, b.batch, b.decode);
        graphs.emplace("b" + std::to_string(b.batch),
                       pe::deserializePlan(pe::readPlanFile(path)).graph);
    }

    std::ifstream f(chromePath, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string s = ss.str();

    // The export is one flat array of {"name":...} event objects; the
    // text of one event runs to the start of the next.
    std::map<std::string, int64_t> stepNsByBucket;
    std::vector<double> queuedUs;
    const std::string head = "{\"name\":\"";
    size_t at = s.find(head);
    while (at != std::string::npos) {
        size_t next = s.find(head, at + head.size());
        const std::string ev = s.substr(
            at, next == std::string::npos ? std::string::npos : next - at);
        at = next;
        if (stringField(ev, "ph") != "X")
            continue;
        const std::string op = stringField(ev, "name");
        const int pid = static_cast<int>(numberField(ev, "pid"));
        const double durUs = numberField(ev, "dur");
        const std::string node = stringField(ev, "node");
        if (pid == 2 && op == "queued") {
            queuedUs.push_back(durUs);
        } else if (pid == 1 && !node.empty()) {
            const std::string bucket = stringField(ev, "bucket");
            const int64_t ns = std::llround(durUs * 1e3);
            OpTime &t = layers.ops[op.substr(0, op.find('/'))];
            t.ns += ns;
            stepNsByBucket[bucket] += ns;
            auto g = graphs.find(bucket);
            if (g != graphs.end())
                t.flops += pe::nodeFlops(
                    g->second, g->second.node(std::stoi(node)));
        }
    }
    layers.queueWaitUsP50 = median(queuedUs);
    return stepNsByBucket;
}

} // namespace perfbench

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

struct Workload {
    const char *name;
    /** Threads that can run at once: client threads + serving workers
     *  + executor pool threads beyond the calling thread. */
    int threads;
    void (*run)(const Args &, Result &);
};

const Workload kWorkloads[] = {
    {"finetune-mcunet", 1, runFinetune},
    {"chat-llama", 2, runChat},
    {"classify-mcunet-int8", 4, runClassify},
};

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            args.workload = v;
        else if (a == "--seed")
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace") {
            args.trace = v == "1";
            haveTrace = v == "0" || v == "1";
        } else
            usage(("unknown argument " + a).c_str());
    }
    if (!haveTrace || !(args.seconds > 0))
        usage("--seconds must be > 0 and --trace 0 or 1");

    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (args.workload == cand.name)
            w = &cand;
    if (w == nullptr)
        usage(("unknown workload '" + args.workload + "'").c_str());
    if (w->threads > usableCpus()) {
        std::fprintf(stderr,
                     "perfbench: %s runs %d threads but only %d CPUs "
                     "are usable\n",
                     w->name, w->threads, usableCpus());
        return 3;
    }

    Result r;
    try {
        w->run(args, r);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", w->name, e.what());
        return 1;
    }
    std::printf("%s\n", r.json().c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
