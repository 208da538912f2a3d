/**
 * @file
 * Seeded RaggedBatch builders shared by the test suites.
 */

#ifndef VITALITY_TESTS_RAGGED_FIXTURES_H
#define VITALITY_TESTS_RAGGED_FIXTURES_H

#include <vector>

#include "base/rng.h"
#include "tensor/matrix.h"
#include "tensor/ragged_batch.h"

namespace vitality {
namespace testing {

/** lens.size() images of lens[i] x cols N(mean, stddev) tokens, drawn
 * from rng image by image. */
inline RaggedBatch
randomRagged(const std::vector<size_t> &lens, size_t cols, Rng &rng,
             float mean = 0.0f, float stddev = 1.0f)
{
    std::vector<Matrix> imgs;
    std::vector<const Matrix *> ptrs;
    imgs.reserve(lens.size());
    for (size_t n : lens) {
        imgs.push_back(Matrix::randn(n, cols, rng, mean, stddev));
        ptrs.push_back(&imgs.back());
    }
    return RaggedBatch::fromMatrices(ptrs.data(), ptrs.size());
}

/** A one-image batch holding a copy of m. */
inline RaggedBatch
soloBatch(const Matrix &m)
{
    const Matrix *ptr = &m;
    return RaggedBatch::fromMatrices(&ptr, 1);
}

/** Image i of b as a standalone matrix. */
inline Matrix
imageOf(const RaggedBatch &b, size_t i)
{
    Matrix out;
    b.unpackImage(i, out);
    return out;
}

} // namespace testing
} // namespace vitality

#endif // VITALITY_TESTS_RAGGED_FIXTURES_H
