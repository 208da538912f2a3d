#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "attention/zoo.h"
#include "common.h"
#include "tensor/gemm.h"

namespace perfbench {

using namespace vitality;

namespace {

const char *const kEncodeFp32 = "encode_fp32";
const char *const kEncodeInt8Hires = "encode_int8_hires";

// Token counts of square patch grids plus the CLS token (g*g + 1).
size_t
gridTokens(size_t g)
{
    return g * g + 1;
}

template <class T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.uniformInt(i)]);
}

} // namespace

const char *const kServeWorkload = "serve_two_models";

RuntimeOptions
pinnedOptions(const ModelSpec &m, size_t threads)
{
    RuntimeOptions o;
    o.gemmBackend = Gemm::available(Gemm::Backend::Avx2)
                        ? Gemm::Backend::Avx2
                        : Gemm::Backend::Scalar;
    o.threads = threads;
    o.epilogueMode = Gemm::EpilogueMode::Fused;
    o.sparseMode = SparseExec::Csr;
    o.quantMode = m.quant;
    o.tokenKeep = m.keep;
    o.layerKernels = std::string(); // engaged-empty: uniform schedule
    return o;
}

PlanOptions
planOptions(const ModelSpec &m)
{
    PlanOptions p;
    p.layerKernels = std::string();
    p.tokenKeep = m.keep;
    p.maxTokens = m.cfg.tokens;
    p.maxBatch = m.maxBatch;
    p.packInt8 = m.quant == Gemm::QuantMode::Int8;
    return p;
}

bool
isEncodeWorkload(const std::string &name)
{
    return name == kEncodeFp32 || name == kEncodeInt8Hires;
}

EncodeWorkload
encodeWorkload(const std::string &name)
{
    EncodeWorkload w;
    // One worker: with two, wall-clock throughput spread 18% (fp32) and
    // 36% (int8) over ten seeded runs on a shared 4-vCPU host while CPU
    // time per image held within 2.5% -- a preempted vCPU stalls the
    // pool's fork-join barriers.
    w.poolThreads = 1;
    w.distinctBatches = 2;
    w.model.cfg = VitConfig::deitSmall();
    w.model.weightSeed = 0x5eedULL;
    if (name == kEncodeFp32) {
        w.model.kernel = AttentionType::Taylor;
        w.model.quant = Gemm::QuantMode::Off;
        w.model.keep = 1.0f;
        w.imageTokens.assign(8, gridTokens(14));
    } else if (name == kEncodeInt8Hires) {
        w.model.kernel = AttentionType::Unified;
        w.model.quant = Gemm::QuantMode::Int8;
        w.model.keep = 0.5f;
        w.imageTokens = {gridTokens(24), gridTokens(20), gridTokens(16),
                         gridTokens(12)};
    } else {
        throw std::invalid_argument("unknown encode workload " + name);
    }
    w.model.cfg.tokens =
        *std::max_element(w.imageTokens.begin(), w.imageTokens.end());
    w.model.maxBatch = w.imageTokens.size();
    return w;
}

std::vector<RaggedBatch>
makeBatches(const EncodeWorkload &w, uint64_t seed)
{
    Rng rng(seed);
    std::vector<RaggedBatch> batches;
    for (size_t b = 0; b < w.distinctBatches; ++b) {
        std::vector<size_t> tokens = w.imageTokens;
        shuffle(tokens, rng);
        std::vector<Matrix> images;
        for (size_t n : tokens)
            images.push_back(makeImage(n, w.model.cfg.dModel, rng));
        std::vector<const Matrix *> ptrs;
        for (const Matrix &m : images)
            ptrs.push_back(&m);
        batches.push_back(RaggedBatch::fromMatrices(ptrs.data(), ptrs.size()));
    }
    return batches;
}

ServeWorkload
serveWorkload()
{
    ServeWorkload w;
    ModelSpec exact{VitConfig::deitTiny(), AttentionType::Softmax,
                    Gemm::QuantMode::Off, 1.0f, 0x5eedULL, 8};
    ModelSpec taylor{VitConfig::deitTiny(), AttentionType::Taylor,
                     Gemm::QuantMode::Int8, 0.5f, 0x5eedULL + 1, 8};
    w.models = {exact, taylor};
    // Every square grid from 2x2 to 14x14: 13 sizes per model, so the
    // 26 service times of a round lie close together and a latency
    // quantile does not sit on a wide gap between two request classes.
    for (size_t g = 2; g <= 14; ++g)
        w.tokenMix.push_back(gridTokens(g));
    w.poolThreads = 1;
    w.policy.maxBatch = 8;
    w.policy.maxWaitMicros = 2000;
    w.policy.queueCapacity = 64;
    w.rate = 8.0;
    w.lightRate = 4.0;
    w.requestsPerPhase = 104;
    w.outstanding = 4;
    w.distinctInputs = 2;
    return w;
}

std::vector<Request>
makeRequests(const ServeWorkload &w, size_t rounds, Rng &rng)
{
    std::vector<Request> out;
    for (size_t r = 0; r < rounds; ++r) {
        std::vector<std::vector<size_t>> perModel(w.models.size(),
                                                  w.tokenMix);
        for (auto &mix : perModel)
            shuffle(mix, rng);
        for (size_t i = 0; i < w.tokenMix.size(); ++i)
            for (size_t m = 0; m < w.models.size(); ++m)
                out.push_back({m, perModel[m][i],
                               static_cast<size_t>(
                                   rng.uniformInt(w.distinctInputs))});
    }
    return out;
}

std::vector<float>
stagedSchedule(size_t layers, float keep)
{
    std::vector<float> s(layers, 1.0f);
    for (size_t p : {layers / 4, layers / 2, 3 * layers / 4})
        if (p + 1 < layers)
            s[p] = keep;
    return s;
}

size_t
keptAfterPrune(size_t n, float keep)
{
    if (n <= 1 || keep >= 1.0f)
        return n;
    const auto want = static_cast<size_t>(
        std::lround(static_cast<double>(keep) * static_cast<double>(n - 1)));
    return 1 + std::min(std::max<size_t>(want, 1), n - 1);
}

size_t
survivingTokens(size_t n, const std::vector<float> &sched)
{
    for (float keep : sched)
        n = keptAfterPrune(n, keep);
    return n;
}

std::string
checkProperties(const RaggedBatch &in, const RaggedBatch &out,
                const std::vector<float> &sched)
{
    if (out.size() != in.size())
        return "image count " + std::to_string(out.size()) + " != " +
               std::to_string(in.size());
    if (out.cols() != in.cols())
        return "width " + std::to_string(out.cols());
    for (size_t i = 0; i < in.size(); ++i) {
        const size_t want = survivingTokens(in.rowsOf(i), sched);
        if (out.rowsOf(i) != want)
            return "image " + std::to_string(i) + " kept " +
                   std::to_string(out.rowsOf(i)) + " tokens, expected " +
                   std::to_string(want);
    }
    if (!allFinite(out.buffer().data(), out.totalRows() * out.cols()))
        return "non-finite output";
    return "";
}

Matrix
makeImage(size_t tokens, size_t d, Rng &rng)
{
    return Matrix::randn(tokens, d, rng, 0.0f, 1.0f);
}

RaggedBatch
soloBatch(const Matrix &m)
{
    const Matrix *p = &m;
    return RaggedBatch::fromMatrices(&p, 1);
}

std::unique_ptr<VitEncoder>
buildEncoder(const ModelSpec &m)
{
    auto enc = std::make_unique<VitEncoder>(m.cfg, makeAttention(m.kernel),
                                            m.weightSeed);
    enc->compilePlan(planOptions(m));
    return enc;
}

} // namespace perfbench
