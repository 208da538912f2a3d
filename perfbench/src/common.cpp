#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <stdexcept>

namespace perfbench {

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value after " + key);
        const std::string val = argv[++i];
        size_t used = 0;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::stoull(val, &used);
            if (used != val.size())
                throw std::invalid_argument("bad --seed " + val);
        } else if (key == "--seconds") {
            a.seconds = std::stod(val, &used);
            if (used != val.size() || !(a.seconds > 0.0) ||
                a.seconds > 600.0)
                throw std::invalid_argument("bad --seconds " + val);
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                throw std::invalid_argument("bad --trace " + val);
            a.trace = val == "1";
        } else {
            throw std::invalid_argument("unknown argument " + key);
        }
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    return a;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(std::max<size_t>(rank, 1), v.size()) - 1];
}

bool
allFinite(const float *p, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

bool
sameBits(const float *a, const float *b, size_t n)
{
    return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool
sameBits(const vitality::RaggedBatch &batch, size_t i,
         const vitality::Matrix &m)
{
    return batch.rowsOf(i) == m.rows() && batch.cols() == m.cols() &&
           sameBits(batch.rowPtr(i, 0), m.data(), m.size());
}

bool
sameBits(const vitality::RaggedBatch &a, const vitality::RaggedBatch &b)
{
    return a.offsets() == b.offsets() && a.cols() == b.cols() &&
           sameBits(a.buffer().data(), b.buffer().data(),
                    a.totalRows() * a.cols());
}

void
Result::add(const std::string &name, double value, const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

void
Result::print(bool correct, uint64_t attempted, uint64_t failed) const
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
        // A non-finite value prints as null, which the runner rejects.
        const double v = metrics_[i].second.first;
        char num[32] = "null";
        if (std::isfinite(v))
            std::snprintf(num, sizeof num, "%.17g", v);
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].first.c_str(), num,
                    metrics_[i].second.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
