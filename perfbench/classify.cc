/**
 * @file
 * classify-mcunet-int8: int8 serving of the MCUNet-proxy (32x32, width
 * 0.5, 4 blocks) calibrated on seeded images, buckets {1,4,8}, two
 * workers and a 500 us coalescing window. Two client threads each run
 * a closed loop of single-image Session::run.
 *
 *   hot call = Session::run (one image)
 *   items    = images
 *
 * Checks (outside every timed region): on a fixed 64-image sample, the
 * int8 top-1 class equals the fp32 EagerEngine::forward top-1, and
 * every timed response is bit-identical to its image's row of a plain
 * multi-row request on one of the buckets (a coalesced request runs a
 * larger bucket's plan, whose calibration saw zero pad rows).
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "baseline/eager.h"
#include "bench.h"
#include "data/synthetic.h"
#include "frontend/models.h"

namespace perfbench {

namespace {

constexpr uint64_t kWeightSeed = 11;
constexpr uint64_t kCalibSeed = 17;
constexpr uint64_t kSampleSeed = 23;
constexpr int kImages = 64;  ///< distinct seeded images, cycled
constexpr int kCalib = 16;   ///< single-image calibration batches
constexpr int kClients = 2;
constexpr int kSetups = 5; ///< set-ups before and after the loop
constexpr size_t kTraceSpans = 1 << 16;

pe::VisionConfig
visionCfg(int64_t batch)
{
    pe::VisionConfig cfg;
    cfg.batch = batch;
    cfg.resolution = 32;
    cfg.width = 0.5;
    cfg.blocks = 4;
    return cfg;
}

std::unique_ptr<pe::ServingEngine>
makeEngine(const std::vector<pe::Batch> &calib, bool trace = false)
{
    auto store = std::make_shared<pe::ParamStore>();
    pe::ServeOptions so = pe::ServeOptions{}
                              .withBuckets({1, 4, 8})
                              .withWorkers(2)
                              .withCoalesceWindow(500);
    so.compile.precision = pe::Precision::Int8;
    for (const pe::Batch &b : calib)
        so.calibration.push_back({{"x", b.x}});
    so.trace = trace;
    so.traceCapacity = kTraceSpans;
    return std::make_unique<pe::ServingEngine>(
        [store](int64_t batch) {
            pe::Rng r(kWeightSeed);
            pe::ModelSpec m =
                pe::buildMcuNet(visionCfg(batch), r, store.get());
            return pe::ServedModel{std::move(m.graph), {m.logits}};
        },
        store, so);
}

constexpr int64_t kBuckets[] = {1, 4, 8};

/** One image's int8 logits as each bucket's plan computes them. */
using BucketLogits = std::array<pe::Tensor, 3>;

/** Every image through every bucket: stacking b images into one b-row
 *  request runs bucket b's plan, and rows do not interact. */
std::vector<BucketLogits>
bucketReferences(pe::ServingEngine &engine,
                 const std::vector<pe::Batch> &images)
{
    std::vector<BucketLogits> ref(images.size());
    pe::Session s = engine.session();
    const int64_t per = images[0].x.size();
    for (size_t k = 0; k < 3; ++k) {
        const size_t b = static_cast<size_t>(kBuckets[k]);
        for (size_t i = 0; i < images.size(); i += b) {
            pe::Shape shape = images[0].x.shape();
            shape[0] = static_cast<int64_t>(b);
            pe::Tensor x(shape);
            for (size_t j = 0; j < b; ++j)
                std::copy(images[i + j].x.data(),
                          images[i + j].x.data() + per,
                          x.data() + static_cast<int64_t>(j) * per);
            pe::Tensor out = s.run({{"x", x}})[0];
            const int64_t classes = out.shape()[1];
            for (size_t j = 0; j < b; ++j) {
                pe::Tensor row({1, classes});
                std::copy(out.data() + static_cast<int64_t>(j) * classes,
                          out.data() + static_cast<int64_t>(j + 1) * classes,
                          row.data());
                ref[i + j][k] = row;
            }
        }
    }
    return ref;
}

bool
bitEqual(const pe::Tensor &a, const pe::Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

int64_t
argmax(const pe::Tensor &t)
{
    return std::max_element(t.data(), t.data() + t.size()) - t.data();
}

struct Phase {
    Samples req; ///< all clients
    int64_t mismatched = 0;
    int64_t errors = 0; ///< clients stopped by an exception
};

/** Two closed-loop clients; every response must equal one of its
 *  image's bucket references @p ref. */
Phase
measure(pe::ServingEngine &engine, const std::vector<pe::Batch> &images,
        const std::vector<BucketLogits> &ref, double seconds,
        int64_t maxCalls, ClientTrace &ct)
{
    struct Client {
        Samples req;
        int64_t mismatched = 0;
        int64_t errors = 0;
        ClientTrace trace{false};
    };
    std::vector<Client> clients(kClients);
    for (Client &c : clients)
        c.trace = ClientTrace(ct.enabled());
    const int64_t deadline = nowNs() + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int k = 0; k < kClients; ++k) {
        threads.emplace_back([&, k] {
            Client &c = clients[static_cast<size_t>(k)];
            try {
                pe::Session s = engine.session();
                for (int64_t i = 0; nowNs() < deadline && i < maxCalls;
                     ++i) {
                    size_t img = static_cast<size_t>(i * kClients + k) %
                                 images.size();
                    auto f = std::unordered_map<std::string, pe::Tensor>{
                        {"x", images[img].x}};
                    pe::Tensor out;
                    c.req.add(c.trace.timed("Session::run", k, i, [&] {
                        out = s.run(std::move(f))[0];
                    }));
                    const BucketLogits &want = ref[img];
                    c.mismatched += !std::any_of(
                        want.begin(), want.end(),
                        [&](const pe::Tensor &w) { return bitEqual(out, w); });
                }
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: client %d: %s\n", k,
                             e.what());
                c.errors += 1;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    Phase ph;
    for (const Client &c : clients) {
        ph.req.append(c.req);
        ph.mismatched += c.mismatched;
        ph.errors += c.errors;
        ct.merge(c.trace);
    }
    return ph;
}

void
check(const Phase &ph, Result &r)
{
    r.attempted += static_cast<int64_t>(ph.req.ms.size()) + ph.errors;
    if (ph.mismatched)
        r.fail(ph.mismatched,
               "int8 responses differ from the bucket references");
    if (ph.errors)
        r.fail(ph.errors, "serving calls threw");
}

} // namespace

void
runClassify(const Args &args, Result &r)
{
    // The deployed model is fixed: calibration images and the fp32
    // check sample come from fixed seeds; --seed draws the traffic.
    const pe::SyntheticVision task = pe::SyntheticVision::pretrain(3, 32);
    auto draw = [&](uint64_t seed, int n) {
        pe::Rng rng(seed);
        std::vector<pe::Batch> out;
        for (int i = 0; i < n; ++i)
            out.push_back(task.sample(1, rng));
        return out;
    };
    const std::vector<pe::Batch> calib = draw(kCalibSeed, kCalib);
    const std::vector<pe::Batch> sample = draw(kSampleSeed, kImages);
    const std::vector<pe::Batch> images = draw(args.seed, kImages);

    ClientTrace ct(args.trace);
    ClientTrace off(false);
    EndToEnd e2e;
    auto make = [&calib] { return makeEngine(calib); };
    std::unique_ptr<pe::ServingEngine> engine = setUpTimes(
        args.trace ? 1 : kSetups, "ServingEngine", ct, e2e.setupS, make);
    for (int64_t b : {1, 4, 8})
        e2e.arenaBytes += engine->bucketReport(b).arenaBytes;

    // Pre-check, also the warm-up: int8 top-1 against fp32 eager on the
    // fixed sample, and the per-bucket references of the traffic.
    {
        auto store = std::make_shared<pe::ParamStore>();
        pe::Rng rng(kWeightSeed);
        pe::ModelSpec m = pe::buildMcuNet(visionCfg(1), rng, store.get());
        pe::EagerEngine eager(m.graph, m.loss, store,
                              pe::CompileOptions{}.optim);
        pe::Session s = engine->session();
        int64_t disagree = 0;
        for (const pe::Batch &img : sample) {
            pe::Tensor got = s.run({{"x", img.x}})[0];
            pe::Tensor want =
                eager.forward({{"x", img.x}, {"y", img.y}}, m.logits);
            disagree += argmax(got) != argmax(want);
        }
        r.attempted += kImages;
        if (disagree)
            r.fail(disagree, "int8 top-1 differs from fp32 eager on " +
                                 std::to_string(disagree) + " of " +
                                 std::to_string(kImages) + " images");
    }
    const std::vector<BucketLogits> ref = bucketReferences(*engine, images);

    Phase timed;
    if (!args.trace) {
        timed = measure(*engine, images, ref, args.seconds, INT64_MAX,
                        off);
    } else {
        Layers layers;
        Phase plain = measure(*engine, images, ref, args.seconds / 2,
                              INT64_MAX, off);
        check(plain, r);
        layers.compileMs = e2e.setupS[0] * 1e3 / 3;
        for (int64_t b : {1, 4, 8})
            layers.addReport(engine->bucketReport(b));

        engine.reset();
        engine = setUpTimes(1, "ServingEngine", ct, e2e.setupS,
                            [&calib] { return makeEngine(calib, true); });
        // Each (worker, bucket) session has its own ring: even if every
        // run of both clients lands on one ring, it never overflows.
        int64_t steps = engine->bucketReport(8).kernelSteps * kClients;
        timed = measure(*engine, images, ref, args.seconds / 2,
                        static_cast<int64_t>(kTraceSpans) / steps, ct);
        std::map<std::string, int64_t> stepNs =
            foldServeTrace(*engine, "classify-mcunet-int8", layers);
        ct.save(traceFile("classify-mcunet-int8.client.json"));
        layers.hotCalls = static_cast<int64_t>(timed.req.ms.size());
        int64_t totalNs = 0;
        for (const auto &[bucket, ns] : stepNs)
            totalNs += ns;
        layers.execMs = static_cast<double>(totalNs) / 1e6 /
                        static_cast<double>(engine->stats().runs);
        layers.bindOverheadMs = mean(timed.req.ms) - layers.execMs;
        layers.traceOverhead =
            median(timed.req.ms) / median(plain.req.ms) - 1;
        layers.hotMs = plain.req.ms;
        layers.clients = kClients;
        layers.report(r);
    }
    check(timed, r);
    if (engine->stats().failed)
        r.fail(engine->stats().failed, "serving requests failed");
    if (args.trace)
        return;

    engine.reset();
    setUpTimes(kSetups, "ServingEngine", ct, e2e.setupS, make);
    e2e.hot = timed.req;
    e2e.report(r);
}

} // namespace perfbench
