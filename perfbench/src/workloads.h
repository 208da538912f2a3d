/**
 * @file
 * The three workloads, defined once for both programs.
 *
 *   encode_fp32        DeiT-Small, Taylor, fp32, no pruning; closed loop
 *                      over ragged batches of 8 full 197-token images.
 *   encode_int8_hires  DeiT-Small, Unified (default T), int8, staged
 *                      keep-0.5 pruning; closed loop over ragged batches
 *                      of 4 mixed resolutions (577/401/257/145 tokens).
 *   serve_two_models   One ModelServer (1-worker pool) serving DeiT-Tiny
 *                      Softmax fp32 and DeiT-Tiny Taylor int8 keep-0.5;
 *                      alternating requests of every square-grid token
 *                      count from 5 (2x2 + CLS) to 197 (14x14 + CLS).
 *
 * The seed decides input values and the order of images and requests;
 * the make-up of every batch and every round of requests is fixed, so
 * runs with different seeds do the same amount of work.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attention/attention.h"
#include "base/rng.h"
#include "model/encoder_plan.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "runtime/runtime_options.h"
#include "serve/dynamic_batcher.h"
#include "tensor/matrix.h"
#include "tensor/ragged_batch.h"

namespace perfbench {

/** One encoder configuration a workload runs. */
struct ModelSpec
{
    vitality::VitConfig cfg; ///< cfg.tokens = the largest image it takes.
    vitality::AttentionType kernel;
    vitality::Gemm::QuantMode quant;
    float keep;        ///< Staged keep ratio; 1 = no pruning.
    uint64_t weightSeed;
    size_t maxBatch;   ///< Plan provisioning / batching policy bound.
};

/**
 * Every VITALITY_* knob engaged, so the ambient environment cannot
 * change what a workload runs.
 */
vitality::RuntimeOptions pinnedOptions(const ModelSpec &m, size_t threads);

/** The plan options the workload compiles (and ModelServer derives). */
vitality::PlanOptions planOptions(const ModelSpec &m);

/** Offline closed-loop encode workload. */
struct EncodeWorkload
{
    ModelSpec model;
    std::vector<size_t> imageTokens; ///< Token counts of one batch.
    size_t poolThreads;
    size_t distinctBatches; ///< Seeded batches cycled by the loop.
};

bool isEncodeWorkload(const std::string &name);
/** Throws std::invalid_argument for an unknown name. */
EncodeWorkload encodeWorkload(const std::string &name);

/** Seeded batches: each is a permutation of imageTokens. */
std::vector<vitality::RaggedBatch> makeBatches(const EncodeWorkload &w,
                                               uint64_t seed);

/** Two-model serving workload. */
struct ServeWorkload
{
    std::vector<ModelSpec> models;
    std::vector<size_t> tokenMix; ///< Each model's share of one round.
    size_t poolThreads;
    vitality::BatchPolicy policy;
    double rate;              ///< Open-loop offered load, img/s.
    double lightRate;         ///< Second open-loop rate (traced runs).
    size_t requestsPerPhase;  ///< Whole rounds; p90 keeps 10 above it.
    size_t outstanding;       ///< Closed-loop saturation clients.
    size_t distinctInputs;    ///< Seeded inputs per (model, tokens).
};

extern const char *const kServeWorkload;
ServeWorkload serveWorkload();

/** One request of the serving traffic. */
struct Request
{
    size_t model;
    size_t tokens;
    size_t input; ///< Index into the (model, tokens) input pool.
};

/**
 * `rounds` whole rounds of requests: per round every model sends each
 * token count of the mix once, models alternating, order seeded.
 */
std::vector<Request> makeRequests(const ServeWorkload &w, size_t rounds,
                                  vitality::Rng &rng);

/**
 * The staged keep schedule re-derived from its documented rule (prune
 * after layers L/4, L/2 and 3L/4, never after the last layer), not
 * taken from the library.
 */
std::vector<float> stagedSchedule(size_t layers, float keep);
/** Tokens left after one prune: CLS + clamp(round(keep (n-1)), 1, n-1). */
size_t keptAfterPrune(size_t n, float keep);
/** Tokens an n-token image leaves the encoder with under sched. */
size_t survivingTokens(size_t n, const std::vector<float> &sched);

/**
 * Property check of an encoder output: the input's image count, each
 * image's row count equal to survivingTokens of its input rows under
 * sched, every value finite. Returns "" when all hold, else the first
 * failure.
 */
std::string checkProperties(const vitality::RaggedBatch &in,
                            const vitality::RaggedBatch &out,
                            const std::vector<float> &sched);

/** Seeded token embeddings, tokens x d, N(0, 1). */
vitality::Matrix makeImage(size_t tokens, size_t d, vitality::Rng &rng);

/** A 1-image ragged batch holding m. */
vitality::RaggedBatch soloBatch(const vitality::Matrix &m);

/** Construct the encoder and compile its plan. */
std::unique_ptr<vitality::VitEncoder> buildEncoder(const ModelSpec &m);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
