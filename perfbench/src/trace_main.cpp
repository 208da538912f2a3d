/**
 * @file
 * vit_trace: replays the encoder stage by stage from outside, timing
 * each call into the library, and reports the per-layer metrics.
 *
 *   vit_trace --workload <name> --seed <n> --seconds <s>
 *
 * The replay calls, in VitEncoder::forwardRaggedInto's order per layer:
 * layerNormRowsInto, QuantizedMatrix::assignActivations (int8 models),
 * Gemm::multiply on the plan's packed panels (Q, K, V),
 * MultiHeadAttention::forwardRaggedInto, the output projection,
 * layerNormRowsInto, the MLP GEMMs (GELU in the first one's epilogue)
 * and TokenPruner::prune. Its output is compared bitwise with the
 * untraced forwardRaggedInto of the same batch (replay.bitwise_equal);
 * replayed stage time over untraced forward time is
 * runtime.trace_coverage. Untraced forwards and replays alternate, so
 * host drift hits both alike.
 *
 * The sparse predictor runs inside the attention kernel, where no call
 * boundary reaches it; sparse.predict_ms re-runs SangerPredictor on each
 * (image, head) after the attention call, across the same pool, and
 * times that. It stands for a part of attention.ms and is left out of
 * trace_coverage.
 */

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "attention/unified_attention.h"
#include "attention/zoo.h"
#include "common.h"
#include "model/token_pruner.h"
#include "runtime/multi_head_attention.h"
#include "runtime/thread_pool.h"
#include "sparse/csr.h"
#include "sparse/predictor.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/quantized_matrix.h"
#include "workloads.h"

using namespace vitality;
using namespace perfbench;

namespace {

/** Seconds spent in each replayed stage, summed over replays. */
struct Stages
{
    double layernorm = 0, quantize = 0, qkv = 0, attention = 0, proj = 0,
           mlp1 = 0, mlp2 = 0, prune = 0;
    double predict = 0; ///< Standalone predictor re-run (sub-span).

    double replayed() const
    {
        return layernorm + quantize + qkv + attention + proj + mlp1 + mlp2 +
               prune;
    }
    double dense() const { return qkv + proj + mlp1 + mlp2; }
};

/** Executed work, summed over replays. */
struct Work
{
    double images = 0, denseMac = 0, attentionMac = 0, tokenLayers = 0;
    double maskNnz = 0, maskCells = 0;
};

/** Accumulates the time since construction (or the last lap) into a slot. */
class Lap
{
  public:
    Lap() : t_(wallSeconds()) {}
    void to(double &slot)
    {
        const double now = wallSeconds();
        slot += now - t_;
        t_ = now;
    }

  private:
    double t_;
};

class Replayer
{
  public:
    explicit Replayer(VitEncoder &enc) : enc_(enc)
    {
        const EncoderPlan *plan = enc.plan();
        if (!plan)
            throw std::invalid_argument("replay needs a compiled plan");
        const float threshold = sparseThreshold(enc.kernel());
        for (size_t l = 0; l < plan->layers(); ++l) {
            const AttentionType t = plan->spec(l).kernel;
            mha_.push_back(std::make_unique<MultiHeadAttention>(
                makeAttention(t), enc.config().heads));
        }
        if (threshold > 0.0f)
            predictor_ = std::make_unique<SangerPredictor>(threshold);
    }

    void run(const RaggedBatch &in, ThreadPool &pool, RaggedBatch &out,
             Stages &t, Work &c)
    {
        const VitConfig &cfg = enc_.config();
        const EncoderPlan &plan = *enc_.plan();
        const size_t d = cfg.dModel, hd = cfg.mlpHidden;
        const size_t dh = cfg.headDim();
        const bool int8 = Gemm::quantMode() == Gemm::QuantMode::Int8;
        if (int8 && !plan.hasInt8())
            throw std::invalid_argument("int8 replay needs int8 panels");
        using E = Gemm::Epilogue;
        auto project = [&](Matrix &dst, const Matrix &a,
                           const PackedMatrix &w, const E &epi, double &slot,
                           Lap &lap) {
            if (int8) {
                qa_.assignActivations(a);
                lap.to(t.quantize);
                Gemm::multiply(dst, qa_, w, Gemm::Trans::None, epi);
            } else {
                Gemm::multiply(dst, a, w, Gemm::Trans::None, epi);
            }
            lap.to(slot);
        };

        x_.copyFrom(in);
        c.images += static_cast<double>(in.size());
        for (size_t l = 0; l < cfg.layers; ++l) {
            const VitEncoder::LayerWeights &w = enc_.layer(l);
            const EncoderPlan::LayerPack &pk = plan.pack(l);
            const size_t total = x_.totalRows();
            normed_.resize(total, d);
            hidden_.resize(total, hd);
            q_.resizeLike(x_);
            k_.resizeLike(x_);
            v_.resizeLike(x_);

            Lap lap;
            layerNormRowsInto(normed_, x_.buffer(), w.ln1Gamma, w.ln1Beta);
            lap.to(t.layernorm);
            if (int8) {
                // One quantization of LN1(x) feeds all three projections.
                qa_.assignActivations(normed_);
                lap.to(t.quantize);
                Gemm::multiply(q_.buffer(), qa_, pk.wq, Gemm::Trans::None, E::withBias(w.bq));
                Gemm::multiply(k_.buffer(), qa_, pk.wk, Gemm::Trans::None, E::withBias(w.bk));
                Gemm::multiply(v_.buffer(), qa_, pk.wv, Gemm::Trans::None, E::withBias(w.bv));
            } else {
                Gemm::multiply(q_.buffer(), normed_, pk.wq, Gemm::Trans::None, E::withBias(w.bq));
                Gemm::multiply(k_.buffer(), normed_, pk.wk, Gemm::Trans::None, E::withBias(w.bk));
                Gemm::multiply(v_.buffer(), normed_, pk.wv, Gemm::Trans::None, E::withBias(w.bv));
            }
            lap.to(t.qkv);
            mha_[l]->forwardRaggedInto(pool, q_, k_, v_, attn_);
            lap.to(t.attention);

            countAttention(l, dh, pool, t, c);

            Lap lap2;
            project(x_.buffer(), attn_.buffer(), pk.wo,
                    E::accumulateWithBias(w.bo), t.proj, lap2);
            layerNormRowsInto(normed_, x_.buffer(), w.ln2Gamma, w.ln2Beta);
            lap2.to(t.layernorm);
            project(hidden_, normed_, pk.w1, E::withBiasGelu(w.b1), t.mlp1,
                    lap2);
            project(x_.buffer(), hidden_, pk.w2, E::accumulateWithBias(w.b2),
                    t.mlp2, lap2);
            c.denseMac += static_cast<double>(total) *
                          static_cast<double>(4 * d * d + 2 * d * hd);
            c.tokenLayers += static_cast<double>(total);

            const float keep = plan.spec(l).tokenKeep;
            if (keep < 1.0f) {
                pruner_.prune(x_, q_, k_, cfg.heads, keep);
                lap2.to(t.prune);
            }
        }
        out.copyFrom(x_);
    }

  private:
    static float sparseThreshold(const AttentionKernel &k)
    {
        if (const auto *u = dynamic_cast<const UnifiedAttention *>(&k))
            return u->threshold();
        return 0.0f;
    }

    /**
     * Attention MACs of layer l from the post-prune token counts, and
     * for a sparse kernel a re-run of the predictor over every (image,
     * head), fanned across the pool as the kernel's own items are, that
     * measures its time and mask density.
     */
    void countAttention(size_t l, size_t dh, ThreadPool &pool, Stages &t,
                        Work &c)
    {
        const MultiHeadAttention &mha = *mha_[l];
        const size_t heads = mha.heads();
        const auto *unified =
            dynamic_cast<const UnifiedAttention *>(&mha.kernel());
        const size_t items = q_.size() * heads;
        density_.assign(items, 0.0);
        if (predictor_ && unified) {
            while (scratch_.size() < pool.size())
                scratch_.push_back(std::make_unique<Scratch>());
            Lap lap;
            pool.parallelFor(0, items, [&](size_t item, size_t worker) {
                Scratch &s = *scratch_[worker];
                const size_t i = item / heads, h = item % heads;
                headSlice(q_, i, h, dh, s.qh);
                headSlice(k_, i, h, dh, s.kh);
                colMeanInto(s.kbar, s.kh);
                broadcastSubRowInto(s.khat, s.kh, s.kbar);
                predictor_->predictCsrInto(s.csr, s.qh, s.khat, s.ws);
                density_[item] = s.csr.density();
            });
            lap.to(t.predict);
        }
        for (size_t item = 0; item < items; ++item) {
            const size_t n = q_.rowsOf(item / heads);
            const OpCounts ops =
                unified ? unified->opCountsWithDensity(n, dh, density_[item])
                        : mha.kernel().opCounts(n, dh);
            c.attentionMac += static_cast<double>(ops.flops());
            if (predictor_ && unified) {
                c.maskNnz += density_[item] * static_cast<double>(n * n);
                c.maskCells += static_cast<double>(n * n);
            }
        }
    }

    static void headSlice(const RaggedBatch &b, size_t i, size_t h, size_t dh,
                          Matrix &dst)
    {
        dst.resize(b.rowsOf(i), dh);
        for (size_t r = 0; r < b.rowsOf(i); ++r) {
            const float *src = b.rowPtr(i, r) + h * dh;
            std::copy(src, src + dh, dst.rowPtr(r));
        }
    }

    VitEncoder &enc_;
    std::vector<std::unique_ptr<MultiHeadAttention>> mha_;
    std::unique_ptr<SangerPredictor> predictor_;
    RaggedBatch x_, q_, k_, v_, attn_;
    Matrix normed_, hidden_;
    QuantizedMatrix qa_;
    TokenPruner pruner_;
    /** Per-worker predictor scratch. */
    struct Scratch
    {
        Matrix qh, kh, kbar, khat;
        Workspace ws;
        CsrMask csr;
    };
    std::vector<std::unique_ptr<Scratch>> scratch_;
    std::vector<double> density_;
};

/** One model of the workload with its traced state. */
struct Traced
{
    ModelSpec spec;
    size_t threads = 1;
    std::unique_ptr<VitEncoder> enc;
    std::unique_ptr<Replayer> replayer;
    std::vector<RaggedBatch> batches, expected;
};

/** Totals of the untraced forwards. */
struct Untraced
{
    double wall = 0, cpu = 0;
    uint64_t attempted = 0, failed = 0;
};

int
runTrace(const Args &args)
{
    std::vector<Traced> models;
    size_t poolThreads = 1;
    if (isEncodeWorkload(args.workload)) {
        const EncodeWorkload w = encodeWorkload(args.workload);
        poolThreads = w.poolThreads;
        Traced m;
        m.spec = w.model;
        m.threads = w.poolThreads;
        m.batches = makeBatches(w, args.seed);
        models.push_back(std::move(m));
    } else if (args.workload == kServeWorkload) {
        // Each served model replays one round of its request mix as a
        // ragged batch.
        const ServeWorkload w = serveWorkload();
        poolThreads = w.poolThreads;
        Rng rng(args.seed);
        for (const ModelSpec &spec : w.models) {
            std::vector<Matrix> imgs;
            for (size_t n : w.tokenMix)
                imgs.push_back(makeImage(n, spec.cfg.dModel, rng));
            std::vector<const Matrix *> ptrs;
            for (const Matrix &m : imgs)
                ptrs.push_back(&m);
            Traced m;
            m.spec = spec;
            m.threads = w.poolThreads;
            m.batches.push_back(RaggedBatch::fromMatrices(ptrs.data(), ptrs.size()));
            models.push_back(std::move(m));
        }
    } else {
        throw std::invalid_argument("unknown workload " + args.workload);
    }

    pinnedOptions(models[0].spec, poolThreads).apply();
    ThreadPool pool(poolThreads);

    double constructMs = 0, compileMs = 0, packedMiB = 0;
    bool correct = true;
    for (Traced &m : models) {
        RuntimeOptions::Scoped pin(pinnedOptions(m.spec, m.threads));
        double t0 = wallSeconds();
        m.enc = std::make_unique<VitEncoder>(m.spec.cfg, makeAttention(m.spec.kernel),
                                             m.spec.weightSeed);
        double t1 = wallSeconds();
        m.enc->compilePlan(planOptions(m.spec));
        const double t2 = wallSeconds();
        constructMs += (t1 - t0) * 1e3;
        compileMs += (t2 - t1) * 1e3;
        packedMiB += static_cast<double>(m.enc->plan()->packedBytes()) /
                     (1024.0 * 1024.0);
        m.replayer = std::make_unique<Replayer>(*m.enc);
        const std::vector<float> sched =
            stagedSchedule(m.spec.cfg.layers, m.spec.keep);
        m.expected.resize(m.batches.size());
        for (size_t b = 0; b < m.batches.size(); ++b) {
            m.enc->forwardRaggedInto(m.batches[b], pool, m.expected[b]);
            const std::string bad =
                checkProperties(m.batches[b], m.expected[b], sched);
            if (!bad.empty()) {
                std::fprintf(stderr, "check failed: %s\n", bad.c_str());
                correct = false;
            }
        }
    }

    Stages st;
    Work work;
    Untraced un;
    bool replayEqual = true;
    RaggedBatch out;
    double untracedImages = 0;
    const double start = wallSeconds();
    do {
        for (Traced &m : models) {
            RuntimeOptions::Scoped pin(pinnedOptions(m.spec, m.threads));
            for (size_t b = 0; b < m.batches.size(); ++b) {
                const double w0 = wallSeconds(), c0 = cpuSeconds();
                bool ok = true;
                try {
                    m.enc->forwardRaggedInto(m.batches[b], pool, out);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "forward threw: %s\n", e.what());
                    ok = false;
                }
                un.wall += wallSeconds() - w0;
                un.cpu += cpuSeconds() - c0;
                ++un.attempted;
                untracedImages += static_cast<double>(m.batches[b].size());
                if (!ok || !sameBits(out, m.expected[b]))
                    ++un.failed;

                m.replayer->run(m.batches[b], pool, out, st, work);
                replayEqual = replayEqual && sameBits(out, m.expected[b]);
            }
        }
    } while (wallSeconds() - start < args.seconds);
    if (!replayEqual)
        std::fprintf(stderr, "replay output differs from forwardRaggedInto: "
                             "the replay no longer matches the encoder\n");

    const double per = 1e3 / work.images; // ms per image
    Result res;
    res.add("tensor.layernorm_ms", st.layernorm * per, "ms");
    res.add("tensor.quantize_ms", st.quantize * per, "ms");
    res.add("tensor.qkv_ms", st.qkv * per, "ms");
    res.add("tensor.proj_ms", st.proj * per, "ms");
    res.add("tensor.mlp1_gelu_ms", st.mlp1 * per, "ms");
    res.add("tensor.mlp2_ms", st.mlp2 * per, "ms");
    res.add("tensor.dense_gmac", work.denseMac / work.images * 1e-9, "GMAC");
    res.add("tensor.dense_gmac_per_s", work.denseMac * 1e-9 / st.dense(),
            "GMAC/s");
    res.add("attention.ms", st.attention * per, "ms");
    res.add("attention.gmac", work.attentionMac / work.images * 1e-9, "GMAC");
    res.add("sparse.predict_ms", st.predict * per, "ms");
    res.add("sparse.mask_density",
            work.maskCells > 0 ? work.maskNnz / work.maskCells : 0.0, "ratio");
    res.add("model.prune_ms", st.prune * per, "ms");
    res.add("model.token_layers", work.tokenLayers / work.images, "count");
    res.add("model.construct_ms", constructMs, "ms");
    res.add("model.plan_compile_ms", compileMs, "ms");
    res.add("model.packed_mib", packedMiB, "MiB");
    res.add("runtime.cores_busy", un.cpu / un.wall, "cores");
    res.add("runtime.trace_coverage",
            (st.replayed() / work.images) / (un.wall / untracedImages),
            "ratio");
    res.add("replay.bitwise_equal", replayEqual ? 1.0 : 0.0, "count");
    res.print(correct, un.attempted, un.failed);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runTrace(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
