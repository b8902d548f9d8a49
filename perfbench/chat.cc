/**
 * @file
 * chat-llama: generative serving of the llama-proxy decoder (dim 128,
 * 4 heads, ffDim 256, 2 layers, maxSeq 256) with prompt bucket 32,
 * decode bucket 1, one worker and coalescing off. One closed-loop
 * client holds a fresh Session per conversation: it prefills a 32-token
 * seeded prompt, then decodes 64 seeded tokens (teacher-forced).
 *
 *   hot call = Session::decode (inter-token latency)
 *   items    = decoded tokens
 *
 * Check (outside every timed region): the prefill and decode logits of
 * the warm-up conversation and of the last timed conversation match
 * one compiled prefill over the same 96 tokens within
 * 1e-4 x max|logit|.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.h"
#include "frontend/models.h"
#include "serve/serving.h"

namespace perfbench {

namespace {

constexpr uint64_t kWeightSeed = 7;
constexpr int64_t kPrompt = 32;
constexpr int64_t kDecode = 64;
constexpr int kConversations = 16; ///< distinct conversations, cycled
constexpr int kSetups = 5; ///< set-ups before and after the loop
constexpr double kTol = 1e-4; ///< x max|reference logit|
constexpr size_t kTraceSpans = 1 << 16;

pe::DecoderConfig
decoderCfg()
{
    return pe::DecoderConfig{}
        .withDim(128)
        .withHeads(4)
        .withFfDim(256)
        .withLayers(2)
        .withMaxSeq(256);
}

pe::Tensor
tokenRows(const std::vector<float> &toks)
{
    pe::Tensor t({static_cast<int64_t>(toks.size()), 1});
    for (size_t i = 0; i < toks.size(); ++i)
        t[static_cast<int64_t>(i)] = toks[i];
    return t;
}

struct Conversation {
    std::vector<float> prompt; ///< kPrompt token ids
    std::vector<float> next;   ///< kDecode token ids
};

std::unique_ptr<pe::ServingEngine>
makeEngine(bool trace = false)
{
    const pe::DecoderConfig cfg = decoderCfg();
    auto store = std::make_shared<pe::ParamStore>();
    pe::ServeOptions so = pe::ServeOptions{}
                              .withBuckets({kPrompt})
                              .withDecodeBuckets({1})
                              .withWorkers(1)
                              .withCoalesceWindow(0);
    so.trace = trace;
    so.traceCapacity = kTraceSpans;
    so.decodeFactory = [store, cfg](int64_t streams) {
        pe::Rng r(kWeightSeed);
        pe::ModelSpec m =
            pe::buildDecoderDecode(cfg, streams, r, store.get());
        return pe::ServedModel{std::move(m.graph), {m.logits}};
    };
    return std::make_unique<pe::ServingEngine>(
        [store, cfg](int64_t prompt) {
            pe::Rng r(kWeightSeed);
            pe::ModelSpec m =
                pe::buildDecoderPrefill(cfg, prompt, r, store.get());
            return pe::ServedModel{std::move(m.graph), {m.logits}};
        },
        store, so);
}

/** Logits one conversation returned: [0] prefill, [1 + t] decode t. */
using Transcript = std::vector<pe::Tensor>;

struct Phase {
    Samples itl;
    std::vector<double> ttftMs;
    int64_t calls = 0;
    Transcript last;   ///< the last completed conversation
    int lastConv = -1; ///< its index in the conversation pool
};

Transcript
converse(pe::ServingEngine &engine, const Conversation &c, int64_t id,
         ClientTrace &ct, Phase &ph)
{
    Transcript out;
    pe::Session s = engine.session();
    auto prompt = std::unordered_map<std::string, pe::Tensor>{
        {"x", tokenRows(c.prompt)}};
    ph.ttftMs.push_back(ct.timed("Session::prefill", 0, id, [&] {
        out.push_back(s.prefill(std::move(prompt))[0]);
    }));
    for (float tok : c.next) {
        auto f = std::unordered_map<std::string, pe::Tensor>{
            {"x", tokenRows({tok})}};
        ph.itl.add(ct.timed("Session::decode", 0, id, [&] {
            out.push_back(s.decode(std::move(f))[0]);
        }));
    }
    ph.calls += 1 + kDecode;
    return out;
}

Phase
measure(pe::ServingEngine &engine, const std::vector<Conversation> &convs,
        double seconds, int64_t maxConvs, ClientTrace &ct)
{
    Phase ph;
    const int64_t deadline =
        nowNs() + static_cast<int64_t>(seconds * 1e9);
    for (int64_t i = 0; nowNs() < deadline && i < maxConvs; ++i) {
        int k = static_cast<int>(i % static_cast<int64_t>(convs.size()));
        Transcript t = converse(engine, convs[static_cast<size_t>(k)], i,
                                ct, ph);
        ph.last = std::move(t);
        ph.lastConv = k;
    }
    return ph;
}

/** Compare a transcript with the reference prefill over all its
 *  tokens; returns the number of mismatching calls. */
int64_t
mismatches(const Transcript &t, const Conversation &c)
{
    const pe::DecoderConfig cfg = decoderCfg();
    auto store = std::make_shared<pe::ParamStore>();
    pe::Rng r(kWeightSeed);
    pe::ModelSpec m =
        pe::buildDecoderPrefill(cfg, kPrompt + kDecode, r, store.get());
    pe::InferenceProgram ref =
        pe::compileInference(m.graph, {m.logits}, {}, store);
    std::vector<float> toks = c.prompt;
    toks.insert(toks.end(), c.next.begin(), c.next.end());
    pe::Tensor want = ref.run({{"x", tokenRows(toks)}})[0];

    const int64_t vocab = cfg.vocab;
    float scale = 0;
    for (int64_t i = 0; i < want.size(); ++i)
        scale = std::max(scale, std::fabs(want[i]));
    const float tol = static_cast<float>(kTol) * scale;
    // Row offset of each call's logits inside the reference.
    auto bad = [&](const pe::Tensor &got, int64_t row0) {
        for (int64_t i = 0; i < got.size(); ++i) {
            float d = std::fabs(got[i] - want[row0 * vocab + i]);
            if (!(d <= tol))
                return true;
        }
        return false;
    };
    int64_t n = bad(t[0], 0);
    for (int64_t k = 0; k < kDecode; ++k)
        n += bad(t[static_cast<size_t>(1 + k)], kPrompt + k);
    return n;
}

} // namespace

void
runChat(const Args &args, Result &r)
{
    const pe::DecoderConfig cfg = decoderCfg();
    pe::Rng tokRng(args.seed);
    std::vector<Conversation> convs(kConversations);
    for (Conversation &c : convs) {
        for (int64_t i = 0; i < kPrompt; ++i)
            c.prompt.push_back(static_cast<float>(tokRng.randint(cfg.vocab)));
        for (int64_t i = 0; i < kDecode; ++i)
            c.next.push_back(static_cast<float>(tokRng.randint(cfg.vocab)));
    }

    ClientTrace ct(args.trace);
    ClientTrace off(false);
    EndToEnd e2e;
    std::unique_ptr<pe::ServingEngine> engine = setUpTimes(
        args.trace ? 1 : kSetups, "ServingEngine", ct, e2e.setupS,
        [] { return makeEngine(); });
    e2e.arenaBytes = engine->bucketReport(kPrompt).arenaBytes +
                     engine->bucketReport(1).arenaBytes;

    // Warm-up conversation, checked.
    {
        Phase warm;
        Transcript t = converse(*engine, convs[0], -1, off, warm);
        r.attempted += warm.calls;
        if (int64_t n = mismatches(t, convs[0]))
            r.fail(n, "warm-up conversation logits differ from the "
                      "reference prefill");
    }

    Phase timed;
    if (!args.trace) {
        timed = measure(*engine, convs, args.seconds, INT64_MAX, off);
    } else {
        Layers layers;
        Phase plain = measure(*engine, convs, args.seconds / 2, INT64_MAX,
                              off);
        r.attempted += plain.calls;
        layers.compileMs = e2e.setupS[0] * 1e3 / 2;
        layers.addReport(engine->bucketReport(kPrompt));
        layers.addReport(engine->bucketReport(1));
        layers.ttftMs = plain.ttftMs;

        engine.reset();
        engine = setUpTimes(1, "ServingEngine", ct, e2e.setupS,
                            [] { return makeEngine(true); });
        // One ring per session context: size the phase so no span is
        // overwritten (a conversation runs 1 + kDecode plans).
        int64_t stepsPerConv = engine->bucketReport(kPrompt).kernelSteps +
                               kDecode * engine->bucketReport(1).kernelSteps;
        timed = measure(*engine, convs, args.seconds / 2,
                        static_cast<int64_t>(kTraceSpans) / stepsPerConv,
                        ct);
        std::map<std::string, int64_t> stepNs =
            foldServeTrace(*engine, "chat-llama", layers);
        ct.save(traceFile("chat-llama.client.json"));
        const double itl = mean(timed.itl.ms);
        layers.serveOverheadUs = itl * 1e3 - layers.runUsDecode;
        layers.cacheBytes = engine->streamCacheBytes();
        layers.hotCalls = static_cast<int64_t>(timed.itl.ms.size());
        layers.execMs = static_cast<double>(stepNs["b1"]) /
                        1e6 / static_cast<double>(timed.itl.ms.size());
        layers.bindOverheadMs = itl - layers.execMs;
        layers.traceOverhead =
            median(timed.itl.ms) / median(plain.itl.ms) - 1;
        layers.hotMs = plain.itl.ms;
        layers.report(r);
    }
    r.attempted += timed.calls;

    if (timed.lastConv >= 0) {
        if (int64_t n = mismatches(timed.last,
                                   convs[static_cast<size_t>(timed.lastConv)]))
            r.fail(n, "timed conversation logits differ from the "
                      "reference prefill");
    }
    if (engine->stats().failed)
        r.fail(engine->stats().failed, "serving requests failed");
    if (args.trace)
        return;

    engine.reset();
    setUpTimes(kSetups, "ServingEngine", ct, e2e.setupS,
               [] { return makeEngine(); });
    e2e.hot = timed.itl;
    e2e.report(r);
}

} // namespace perfbench
