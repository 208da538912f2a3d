/**
 * @file
 * Plumbing shared by the benchmark programs: command line, clocks,
 * order statistics, output checks and the result line.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/ragged_batch.h"

namespace perfbench {

/** `--workload <name> --seed <n> --seconds <s> [--trace 0|1]`; throws on bad input. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};
Args parseArgs(int argc, char **argv);

/** Monotonic wall clock, seconds. */
double wallSeconds();
/** CPU time of the whole process (every thread), seconds. */
double cpuSeconds();
/** High-water resident set size of this process, MiB. */
double peakRssMiB();

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> v);
/**
 * Nearest-rank percentile, p in (0, 100]: the ceil(p/100 * n)-th
 * smallest sample, so p90 of 100 samples leaves 10 above it.
 */
double percentile(std::vector<double> v, double p);

/** True when every entry is finite. */
bool allFinite(const float *p, size_t n);
/** Bitwise equality of two float ranges. */
bool sameBits(const float *a, const float *b, size_t n);
/** Bitwise equality of image i of a ragged batch and a matrix. */
bool sameBits(const vitality::RaggedBatch &batch, size_t i,
              const vitality::Matrix &m);
/** Bitwise equality of two ragged batches, structure included. */
bool sameBits(const vitality::RaggedBatch &a, const vitality::RaggedBatch &b);

/** The result line: name -> (value, unit), printed as JSON. */
class Result
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    /** Prints one line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. */
    void print(bool correct, uint64_t attempted, uint64_t failed) const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
