/**
 * @file
 * vit_bench: the end-to-end runner. Tracing is off; the program under
 * test is reached only through its public API.
 *
 *   vit_bench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
 *
 * Prints one JSON result line last. Encode workloads: a closed loop of
 * ragged batches for --seconds. serve_two_models: a closed-loop
 * saturation phase for --seconds; with --trace 1 it is preceded by an
 * open loop at 8 img/s and followed by one at 4 img/s (104 requests
 * each), and the serve-side per-layer metrics are added.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "attention/zoo.h"
#include "common.h"
#include "reference.h"
#include "runtime/thread_pool.h"
#include "serve/model_server.h"
#include "workloads.h"

using namespace vitality;
using namespace perfbench;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 3;

/** Prints each set-up's time, the first (cold) one included. */
void
logSetups(const std::vector<double> &setups)
{
    std::fprintf(stderr, "set-ups:");
    for (double t : setups)
        std::fprintf(stderr, " %.4f", t);
    std::fprintf(stderr, " s (median %.4f)\n", median(setups));
}

/** Outcome of a run's output checks (outside every timed phase). */
struct Verdict
{
    bool correct = true;

    void fail(const std::string &what)
    {
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
        correct = false;
    }
    void reference(const std::string &label, const Matrix &out,
                   const VitEncoder &enc, const Matrix &in, double tol)
    {
        const double diff = maxAbsDiff(out, referenceForward(enc, in));
        std::fprintf(stderr, "reference %s: max|out-ref| = %.3g (tol %.3g)\n",
                     label.c_str(), diff, tol);
        if (!(diff <= tol))
            fail("reference " + label);
    }
};

double
toleranceFor(Gemm::QuantMode q)
{
    return q == Gemm::QuantMode::Int8 ? kInt8Tolerance : kFp32Tolerance;
}

// ---------------------------------------------------------------- encode

int
runEncode(const Args &args)
{
    const EncodeWorkload w = encodeWorkload(args.workload);
    const ModelSpec &spec = w.model;
    pinnedOptions(spec, w.poolThreads).apply();
    std::fprintf(stderr, "options: %s\n",
                 RuntimeOptions::current().summary().c_str());

    ThreadPool pool(w.poolThreads);
    const std::vector<RaggedBatch> batches = makeBatches(w, args.seed);
    const size_t images = batches[0].size();

    // Set-up: construct, compile and warm (one forward of the largest
    // image) the model, several times.
    size_t largest = 0;
    for (size_t i = 1; i < images; ++i)
        if (batches[0].rowsOf(i) > batches[0].rowsOf(largest))
            largest = i;
    Matrix warmImage;
    batches[0].unpackImage(largest, warmImage);
    const RaggedBatch warm = soloBatch(warmImage);
    std::vector<double> setups;
    std::unique_ptr<VitEncoder> enc;
    RaggedBatch out;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        enc.reset();
        const double t0 = wallSeconds();
        enc = buildEncoder(spec);
        enc->forwardRaggedInto(warm, pool, out);
        setups.push_back(wallSeconds() - t0);
    }
    std::fprintf(stderr, "%s\n", enc->plan()->summary().c_str());
    logSetups(setups);

    // Timed closed loop, whole rounds of the distinct batches. The
    // first output of each batch becomes its expected output, checked
    // below; every later output must equal it bitwise.
    uint64_t attempted = 0, failed = 0;
    std::vector<double> latMs, rate, cpuMs;
    std::vector<RaggedBatch> expected(batches.size());
    const double start = wallSeconds();
    for (size_t j = 0;
         wallSeconds() - start < args.seconds || j % batches.size() != 0;
         ++j) {
        const size_t b = j % batches.size();
        const double w0 = wallSeconds(), c0 = cpuSeconds();
        bool ok = true;
        try {
            enc->forwardRaggedInto(batches[b], pool, out);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "batch %zu threw: %s\n", j, e.what());
            ok = false;
        }
        const double w1 = wallSeconds(), c1 = cpuSeconds();
        ++attempted;
        if (ok && j == b)
            expected[b].copyFrom(out);
        if (!ok || !sameBits(out, expected[b])) {
            ++failed;
            continue;
        }
        latMs.push_back((w1 - w0) * 1e3);
        rate.push_back(static_cast<double>(images) / (w1 - w0));
        cpuMs.push_back((c1 - c0) * 1e3 / static_cast<double>(images));
    }
    const double peakRss = peakRssMiB();

    // The expected outputs: properties of every batch; images of the
    // first batch bitwise equal to their solo forwards (every image
    // when the model prunes, else the reference image); one image per
    // configuration against the float64 reference, a pruned model
    // with its plan recompiled at keep 1.0.
    Verdict verdict;
    const std::vector<float> sched = stagedSchedule(spec.cfg.layers, spec.keep);
    for (size_t b = 0; b < batches.size(); ++b) {
        const std::string bad = checkProperties(batches[b], expected[b], sched);
        if (!bad.empty())
            verdict.fail("batch " + std::to_string(b) + ": " + bad);
    }
    size_t pick = 0;
    for (size_t i = 1; i < images; ++i)
        if (batches[0].rowsOf(i) < batches[0].rowsOf(pick))
            pick = i;
    for (size_t i = 0; i < images; ++i) {
        if (spec.keep >= 1.0f && i != pick)
            continue;
        Matrix img, want;
        batches[0].unpackImage(i, img);
        enc->forwardRagged(soloBatch(img), pool).unpackImage(0, want);
        if (!sameBits(expected[0], i, want))
            verdict.fail("image " + std::to_string(i) +
                         " differs from its solo forward");
    }
    {
        Matrix img, got;
        batches[0].unpackImage(pick, img);
        if (spec.keep < 1.0f) {
            PlanOptions full = planOptions(spec);
            full.tokenKeep = 1.0f;
            enc->compilePlan(full);
            enc->forwardRagged(soloBatch(img), pool).unpackImage(0, got);
        } else {
            expected[0].unpackImage(pick, got);
        }
        verdict.reference(args.workload, got, *enc, img,
                          toleranceFor(spec.quant));
    }

    std::fprintf(stderr,
                 "timed batches: %zu ok of %llu (%zu images each), latency "
                 "min %.1f p25 %.1f p50 %.1f p75 %.1f max %.1f ms\n",
                 latMs.size(), static_cast<unsigned long long>(attempted),
                 images, percentile(latMs, 0.0), percentile(latMs, 25.0),
                 median(latMs), percentile(latMs, 75.0),
                 percentile(latMs, 100.0));
    Result res;
    res.add("images_per_s", median(rate), "img/s");
    res.add("cpu_ms_per_image", median(cpuMs), "ms");
    res.add("setup_s", median(setups), "s");
    res.add("peak_rss_mib", peakRss, "MiB");
    res.print(verdict.correct, attempted, failed);
    return 0;
}

// ----------------------------------------------------------------- serve

/** Everything the server needs, built once per set-up. */
struct ServeSetup
{
    std::unique_ptr<ModelServer> server;
    std::vector<std::string> keys;
};

ModelConfig
modelConfig(const ServeWorkload &w, const ModelSpec &m)
{
    ModelConfig c;
    c.preset = m.cfg;
    c.kernel = m.kernel;
    c.policy = w.policy;
    c.options = pinnedOptions(m, w.poolThreads);
    c.seed = m.weightSeed;
    return c;
}

/** One served request's record. */
struct Served
{
    bool ok = false;
    double latencyMs = 0.0; ///< From its due time (open loop) or submit.
    double queueMs = 0.0, computeMs = 0.0;
    size_t batchSize = 0;
};

/**
 * Inputs per (model, tokens, input), and the first response served for
 * each; every later response must equal it bitwise. Only one thread at
 * a time collects responses, so `first` needs no lock.
 */
struct Traffic
{
    std::map<std::tuple<size_t, size_t, size_t>, Matrix> input, first;
};

class ServeRun
{
  public:
    ServeRun(const ServeWorkload &w, ServeSetup &s, Traffic &t)
        : w_(w), s_(s), t_(t)
    {
    }

    /**
     * Open loop: requests submitted at seeded Poisson due times at
     * `rate`, latency counted from the due time. A collector thread
     * takes the responses in order so none pile up in the client.
     */
    std::vector<Served> openLoop(const std::vector<Request> &reqs,
                                 double rate, Rng &rng, double &lateMaxMs)
    {
        std::vector<Served> rec(reqs.size());
        std::vector<std::future<InferenceResponse>> futs(reqs.size());
        std::vector<double> lateMs(reqs.size(), 0.0);
        std::atomic<size_t> published{0};
        std::thread collector([&] {
            for (size_t i = 0; i < reqs.size(); ++i) {
                while (published.load(std::memory_order_acquire) <= i)
                    std::this_thread::sleep_for(std::chrono::microseconds(200));
                if (futs[i].valid())
                    rec[i] = take(reqs[i], futs[i], lateMs[i]);
            }
        });
        const auto t0 = std::chrono::steady_clock::now();
        double due = 0.0;
        lateMaxMs = 0.0;
        for (size_t i = 0; i < reqs.size(); ++i) {
            due += -std::log(1.0 - static_cast<double>(rng.uniform())) / rate;
            const auto dueAt =
                t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(due));
            std::this_thread::sleep_until(dueAt);
            lateMs[i] = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - dueAt)
                            .count();
            lateMaxMs = std::max(lateMaxMs, lateMs[i]);
            futs[i] = submit(reqs[i]);
            published.store(i + 1, std::memory_order_release);
        }
        collector.join();
        return rec;
    }

    /**
     * Closed loop with w.outstanding requests in flight, for `seconds`
     * and then to the end of the round. Laps of one round give the
     * throughput and CPU samples.
     */
    std::vector<Served> closedLoop(double seconds, Rng &rng,
                                   std::vector<double> &lapRate,
                                   std::vector<double> &lapCpuMs)
    {
        const size_t round = w_.models.size() * w_.tokenMix.size();
        std::vector<Request> reqs;
        std::vector<Served> rec;
        std::deque<std::pair<size_t, std::future<InferenceResponse>>> inflight;
        size_t next = 0;
        const double start = wallSeconds();
        double lapWall = start, lapCpu = cpuSeconds();
        auto refill = [&] {
            while (inflight.size() < w_.outstanding &&
                   (next % round != 0 || wallSeconds() - start < seconds)) {
                if (next == reqs.size()) {
                    const std::vector<Request> more = makeRequests(w_, 1, rng);
                    reqs.insert(reqs.end(), more.begin(), more.end());
                }
                inflight.emplace_back(next, submit(reqs[next]));
                ++next;
            }
        };
        refill();
        while (!inflight.empty()) {
            auto [i, fut] = std::move(inflight.front());
            inflight.pop_front();
            rec.push_back(fut.valid() ? take(reqs[i], fut, 0.0) : Served{});
            refill();
            if (rec.size() % round == 0) {
                const double nowW = wallSeconds(), nowC = cpuSeconds();
                lapRate.push_back(static_cast<double>(round) / (nowW - lapWall));
                lapCpuMs.push_back((nowC - lapCpu) * 1e3 /
                                   static_cast<double>(round));
                lapWall = nowW;
                lapCpu = nowC;
            }
        }
        return rec;
    }

  private:
    std::future<InferenceResponse> submit(const Request &r)
    {
        try {
            return s_.server->submit(s_.keys[r.model],
                                     t_.input.at({r.model, r.tokens, r.input}));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "submit failed: %s\n", e.what());
            return {};
        }
    }

    Served take(const Request &r, std::future<InferenceResponse> &f,
                double lateMs)
    {
        Served s;
        try {
            InferenceResponse resp = f.get();
            const auto [it, fresh] =
                t_.first.try_emplace({r.model, r.tokens, r.input});
            const Matrix &want = it->second;
            s.ok = fresh || (resp.output.rows() == want.rows() &&
                             resp.output.cols() == want.cols() &&
                             sameBits(resp.output.data(), want.data(),
                                      want.size()));
            if (fresh)
                it->second = std::move(resp.output);
            if (!s.ok)
                std::fprintf(stderr, "response differs from the first one "
                                     "served (model %zu, %zu tokens)\n",
                             r.model, r.tokens);
            // The server stamps enqueue at submit, which the generator
            // issues right after the due time: latency from the due time
            // is the generator's lateness plus the server's total.
            s.latencyMs = lateMs + resp.totalMs;
            s.queueMs = resp.queueMs;
            s.computeMs = resp.computeMs;
            s.batchSize = resp.batchSize;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "request failed: %s\n", e.what());
        }
        return s;
    }

    const ServeWorkload &w_;
    ServeSetup &s_;
    Traffic &t_;
};

ServeSetup
setUpServer(const ServeWorkload &w, const Traffic &t)
{
    ServeSetup s;
    s.server = std::make_unique<ModelServer>(w.poolThreads);
    for (const ModelSpec &m : w.models)
        s.keys.push_back(s.server->addModel(modelConfig(w, m)));
    // Warm each model at its largest request.
    const size_t big = *std::max_element(w.tokenMix.begin(), w.tokenMix.end());
    for (size_t m = 0; m < w.models.size(); ++m)
        s.server->submit(s.keys[m], t.input.at({m, big, 0})).get();
    return s;
}

struct PhaseStats
{
    uint64_t attempted = 0, failed = 0;
    std::vector<double> latency, queue, compute, batch;
};

PhaseStats
summarize(const std::vector<Served> &rec)
{
    PhaseStats p;
    for (const Served &s : rec) {
        ++p.attempted;
        if (!s.ok) {
            ++p.failed;
            continue;
        }
        p.latency.push_back(s.latencyMs);
        p.queue.push_back(s.queueMs);
        p.compute.push_back(s.computeMs);
        p.batch.push_back(static_cast<double>(s.batchSize));
    }
    return p;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

int
runServe(const Args &args)
{
    const ServeWorkload w = serveWorkload();
    // The process-wide state runs model 0's options; each model pins
    // its own around every dispatch.
    pinnedOptions(w.models[0], w.poolThreads).apply();
    Rng rng(args.seed);

    Traffic traffic;
    for (size_t m = 0; m < w.models.size(); ++m)
        for (size_t n : w.tokenMix)
            for (size_t i = 0; i < w.distinctInputs; ++i)
                traffic.input[{m, n, i}] =
                    makeImage(n, w.models[m].cfg.dModel, rng);

    std::vector<double> setups;
    ServeSetup setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        setup = ServeSetup{};
        const double t0 = wallSeconds();
        setup = setUpServer(w, traffic);
        setups.push_back(wallSeconds() - t0);
    }
    logSetups(setups);

    ServeRun run(w, setup, traffic);
    const size_t round = w.models.size() * w.tokenMix.size();
    const size_t rounds = w.requestsPerPhase / round;

    // Open loops run only in traced runs: their latency spread over ten
    // seeded runs (28% for the 8 img/s median) is wider than any bound
    // an end-to-end metric may have on this host.
    PhaseStats r8, r4;
    double late8 = 0.0, late4 = 0.0;
    if (args.trace)
        r8 = summarize(run.openLoop(makeRequests(w, rounds, rng), w.rate,
                                    rng, late8));
    std::vector<double> lapRate, lapCpuMs;
    const PhaseStats sat =
        summarize(run.closedLoop(args.seconds, rng, lapRate, lapCpuMs));
    const double peakRss = peakRssMiB();
    if (args.trace)
        r4 = summarize(run.openLoop(makeRequests(w, rounds, rng),
                                    w.lightRate, rng, late4));
    // The first response of each (model, tokens, input) against a
    // direct solo forward on a same-seed, unplanned encoder under the
    // model's pinned options; the direct outputs are checked by their
    // properties, and the fp32 model and the unpruned int8 model against
    // the float64 reference on one 197-token image. All of it runs after
    // peak RSS is read, so the checkers' memory does not count.
    Verdict verdict;
    ThreadPool &pool = setup.server->pool();
    size_t compared = 0;
    for (size_t m = 0; m < w.models.size(); ++m) {
        const ModelSpec &spec = w.models[m];
        RuntimeOptions::Scoped pin(pinnedOptions(spec, w.poolThreads));
        VitEncoder direct(spec.cfg, makeAttention(spec.kernel), spec.weightSeed);
        const std::vector<float> sched = stagedSchedule(spec.cfg.layers, spec.keep);
        for (size_t n : w.tokenMix)
            for (size_t i = 0; i < w.distinctInputs; ++i) {
                const RaggedBatch in = soloBatch(traffic.input.at({m, n, i}));
                const RaggedBatch out = direct.forwardRagged(in, pool);
                const std::string bad = checkProperties(in, out, sched);
                if (!bad.empty())
                    verdict.fail(setup.keys[m] + ": " + bad);
                const auto served = traffic.first.find({m, n, i});
                if (served == traffic.first.end())
                    continue;
                ++compared;
                if (!sameBits(out, 0, served->second))
                    verdict.fail(setup.keys[m] + ": response for " +
                                 std::to_string(n) +
                                 " tokens differs from the direct forward");
            }
        const size_t big =
            *std::max_element(w.tokenMix.begin(), w.tokenMix.end());
        const Matrix &img = traffic.input.at({m, big, 0});
        Matrix got;
        ModelSpec full = spec;
        full.keep = 1.0f;
        RuntimeOptions::Scoped unpruned(pinnedOptions(full, w.poolThreads));
        direct.forwardRagged(soloBatch(img), pool).unpackImage(0, got);
        verdict.reference(setup.keys[m], got, direct, img,
                          toleranceFor(spec.quant));
    }
    const uint64_t attempted = r8.attempted + sat.attempted + r4.attempted;
    const uint64_t failed = r8.failed + sat.failed + r4.failed;
    std::fprintf(stderr,
                 "saturation: %zu ok of %llu in %zu laps; open loop %.0f "
                 "img/s: %zu ok of %llu; %.0f img/s: %zu ok of %llu; %zu "
                 "first responses checked against direct forwards\n",
                 sat.latency.size(),
                 static_cast<unsigned long long>(sat.attempted),
                 lapRate.size(), w.rate, r8.latency.size(),
                 static_cast<unsigned long long>(r8.attempted), w.lightRate,
                 r4.latency.size(),
                 static_cast<unsigned long long>(r4.attempted), compared);

    Result res;
    res.add("images_per_s", median(lapRate), "img/s");
    res.add("cpu_ms_per_image", median(lapCpuMs), "ms");
    res.add("setup_s", median(setups), "s");
    res.add("peak_rss_mib", peakRss, "MiB");
    if (args.trace) {
        res.add("serve.latency_ms.p50.r8", median(r8.latency), "ms");
        res.add("serve.latency_ms.p90.r8", percentile(r8.latency, 90.0), "ms");
        res.add("serve.latency_ms.p50.r4", median(r4.latency), "ms");
        res.add("serve.latency_ms.p90.r4", percentile(r4.latency, 90.0), "ms");
        const std::pair<const char *, const PhaseStats *> phases[] = {
            {"r4", &r4}, {"r8", &r8}, {"sat", &sat}};
        for (const auto &[name, p] : phases) {
            const std::string sfx = std::string(".") + name;
            res.add("serve.queue_ms.p50" + sfx, median(p->queue), "ms");
            res.add("serve.compute_ms.p50" + sfx, median(p->compute), "ms");
            res.add("serve.batch_size.mean" + sfx, mean(p->batch), "count");
        }
        res.add("loadgen.late_ms.max", std::max(late4, late8), "ms");
    }
    res.print(verdict.correct, attempted, failed);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        if (isEncodeWorkload(args.workload))
            return runEncode(args);
        if (args.workload == kServeWorkload)
            return runServe(args);
        throw std::invalid_argument("unknown workload " + args.workload);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
