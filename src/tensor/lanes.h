/**
 * @file
 * Lane layout descriptors for batched (multi-read) matrix operands.
 *
 * A batched operand stacks the rows of several independent "lanes" (one per
 * read/chunk) into a single matrix so the backend can execute one VMM pass
 * over all of them. The layout records, in stacking order, which lane owns
 * each contiguous row range; backends use it to keep per-lane state (input
 * normalization, conversion-noise streams) bitwise-identical to running the
 * lanes one at a time.
 */

#ifndef SWORDFISH_TENSOR_LANES_H
#define SWORDFISH_TENSOR_LANES_H

#include <cstddef>
#include <vector>

namespace swordfish {

/** One contiguous row range of a stacked operand, owned by one lane. */
struct LaneSpan
{
    std::size_t lane = 0; ///< batch-lane index (backend rng/state key)
    std::size_t rows = 0; ///< number of stacked rows owned by the lane
};

/** Row-major stacking order of a batched operand. */
using BatchLayout = std::vector<LaneSpan>;

/** Total row count described by a layout. */
inline std::size_t
layoutRows(const BatchLayout& layout)
{
    std::size_t rows = 0;
    for (const LaneSpan& span : layout)
        rows += span.rows;
    return rows;
}

} // namespace swordfish

#endif // SWORDFISH_TENSOR_LANES_H
