/**
 * @file
 * Test of the benchmark's output checks: the float64 reference agrees
 * with the library on small encoders of every kernel the workloads run
 * (Unified also at a threshold low enough that its sparse branch is
 * non-empty), and each check catches a corrupted output.
 *
 *   perfbench_selftest      exits 0 when every case passes
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "attention/zoo.h"
#include "common.h"
#include "reference.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

using namespace vitality;
using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool cond, const std::string &what)
{
    std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what.c_str());
    if (!cond)
        ++failures;
}

VitConfig
smallConfig()
{
    VitConfig cfg = VitConfig::deitTiny();
    cfg.layers = 2;
    cfg.tokens = 50;
    return cfg;
}

void
referenceCase(const std::string &label, AttentionKernelPtr kernel,
              Gemm::QuantMode quant, ThreadPool &pool,
              AttentionKernelPtr otherKernel = nullptr)
{
    ModelSpec spec{smallConfig(), kernel->type(), quant, 1.0f, 7, 1};
    RuntimeOptions::Scoped pin(pinnedOptions(spec, 2));
    VitEncoder enc(spec.cfg, kernel, spec.weightSeed);
    Rng rng(11);
    const Matrix x = makeImage(spec.cfg.tokens, spec.cfg.dModel, rng);
    Matrix y;
    enc.forwardRagged(soloBatch(x), pool).unpackImage(0, y);
    const std::vector<double> ref = referenceForward(enc, x);
    const double tol = quant == Gemm::QuantMode::Int8 ? kInt8Tolerance
                                                      : kFp32Tolerance;
    const double diff = maxAbsDiff(y, ref);
    std::printf("      %s: max|out-ref| = %.3g\n", label.c_str(), diff);
    expect(diff <= tol, label + " matches the float64 reference");

    if (otherKernel) {
        VitEncoder other(spec.cfg, otherKernel, spec.weightSeed);
        const double swap = maxAbsDiff(y, referenceForward(other, x));
        std::printf("      %s vs %s reference: %.3g\n", label.c_str(),
                    otherKernel->name().c_str(), swap);
        expect(!(swap <= tol), label + ": output of another kernel caught");
    }

    Matrix bad = y;
    bad.data()[bad.size() / 2] += static_cast<float>(4 * tol);
    expect(!(maxAbsDiff(bad, ref) <= tol), label + ": perturbed output caught");
    bad.data()[0] = std::numeric_limits<float>::quiet_NaN();
    expect(!(maxAbsDiff(bad, ref) <= tol), label + ": NaN output caught");
}

void
propertyCases(ThreadPool &pool)
{
    ModelSpec spec{smallConfig(), AttentionType::Taylor,
                   Gemm::QuantMode::Off, 0.5f, 7, 2};
    spec.cfg.layers = 4; // prunes after layers 1 and 2
    RuntimeOptions::Scoped pin(pinnedOptions(spec, 2));
    const std::unique_ptr<VitEncoder> enc = buildEncoder(spec);
    Rng rng(5);
    const Matrix a = makeImage(50, spec.cfg.dModel, rng);
    const Matrix b = makeImage(17, spec.cfg.dModel, rng);
    const Matrix *ptrs[] = {&a, &b};
    const RaggedBatch in = RaggedBatch::fromMatrices(ptrs, 2);
    const RaggedBatch out = enc->forwardRagged(in, pool);
    const std::vector<float> sched = stagedSchedule(spec.cfg.layers, spec.keep);
    expect(survivingTokens(50, sched) == 14 && survivingTokens(17, sched) == 5,
           "survivor counts follow the staged rule (50 -> 14, 17 -> 5)");
    expect(checkProperties(in, out, sched).empty(),
           "pruned output passes the property check");

    RaggedBatch fewer = out;
    const size_t rows[] = {out.rowsOf(0) - 1, out.rowsOf(1)};
    fewer.shrinkRows(rows);
    expect(!checkProperties(in, fewer, sched).empty(),
           "a missing survivor row is caught");

    RaggedBatch nan = out;
    nan.rowPtr(1, 0)[3] = std::numeric_limits<float>::infinity();
    expect(!checkProperties(in, nan, sched).empty(),
           "a non-finite value is caught");

    Matrix solo;
    enc->forwardRagged(soloBatch(b), pool).unpackImage(0, solo);
    expect(sameBits(out, 1, solo), "batched image equals its solo forward");
    uint32_t bits;
    std::memcpy(&bits, solo.data(), sizeof bits);
    bits ^= 1u; // one ulp
    std::memcpy(solo.data(), &bits, sizeof bits);
    expect(!sameBits(out, 1, solo), "a one-ulp difference is caught");
}

} // namespace

int
main()
{
    ThreadPool pool(2);
    referenceCase("softmax fp32", makeAttention(AttentionType::Softmax),
                  Gemm::QuantMode::Off, pool,
                  makeAttention(AttentionType::Taylor));
    referenceCase("taylor fp32", makeAttention(AttentionType::Taylor),
                  Gemm::QuantMode::Off, pool,
                  makeAttention(AttentionType::Softmax));
    referenceCase("unified fp32 T=0.5", makeAttention(AttentionType::Unified),
                  Gemm::QuantMode::Off, pool);
    referenceCase("unified fp32 T=0.02",
                  makeAttention(AttentionType::Unified, 0.02f),
                  Gemm::QuantMode::Off, pool,
                  makeAttention(AttentionType::Taylor));
    referenceCase("taylor int8", makeAttention(AttentionType::Taylor),
                  Gemm::QuantMode::Int8, pool);
    propertyCases(pool);
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}
