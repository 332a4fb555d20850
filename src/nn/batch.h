/**
 * @file
 * SequenceBatch: several independent time-major sequences ("lanes") stacked
 * row-wise into one matrix so the whole group can flow through the network
 * as a single operand.
 *
 * Lanes keep their identity through the stack: `offsets` records each
 * lane's row range and `streams` carries the per-lane noise-stream id (the
 * read index) that non-ideal backends use to reproduce, bitwise, the
 * conversion noise the lane would have seen on the serial path.
 */

#ifndef SWORDFISH_NN_BATCH_H
#define SWORDFISH_NN_BATCH_H

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/lanes.h"
#include "tensor/matrix.h"

namespace swordfish::nn {

using swordfish::BatchLayout;
using swordfish::LaneSpan;
using swordfish::Matrix;

/** A group of stacked sequences, one lane per read/chunk. */
struct SequenceBatch
{
    Matrix data;                        ///< [sum(T_i) x C] stacked rows
    std::vector<std::size_t> offsets;   ///< lane L owns rows [offsets[L], offsets[L+1])
    std::vector<std::uint64_t> streams; ///< per-lane noise stream ids

    std::size_t laneCount() const { return streams.size(); }

    std::size_t laneOffset(std::size_t lane) const { return offsets[lane]; }

    std::size_t
    laneRows(std::size_t lane) const
    {
        return offsets[lane + 1] - offsets[lane];
    }

    /** Copy of one lane's rows as a standalone matrix. */
    Matrix
    laneMatrix(std::size_t lane) const
    {
        const std::size_t rows = laneRows(lane);
        Matrix out(rows, data.cols());
        const float* src = data.raw().data() + laneOffset(lane) * data.cols();
        std::copy(src, src + rows * data.cols(), out.raw().begin());
        return out;
    }

    /** Stacking order descriptor for backend batched calls. */
    BatchLayout
    layout() const
    {
        BatchLayout l;
        l.reserve(laneCount());
        for (std::size_t i = 0; i < laneCount(); ++i)
            l.push_back({i, laneRows(i)});
        return l;
    }

    /** Build a batch by stacking per-lane matrices. */
    static SequenceBatch
    fromLanes(const std::vector<Matrix>& lanes,
              std::vector<std::uint64_t> lane_streams)
    {
        SequenceBatch batch;
        batch.streams = std::move(lane_streams);
        batch.offsets.assign(1, 0);
        const std::size_t cols = lanes.empty() ? 0 : lanes.front().cols();
        for (const Matrix& m : lanes) {
            if (m.cols() != cols)
                panic("SequenceBatch: lane width mismatch (", m.cols(),
                      " vs ", cols, ")");
            batch.offsets.push_back(batch.offsets.back() + m.rows());
        }
        batch.data.resize(batch.offsets.back(), cols);
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            float* dst = batch.data.raw().data() + batch.offsets[i] * cols;
            std::copy(lanes[i].raw().begin(), lanes[i].raw().end(), dst);
        }
        return batch;
    }
};

} // namespace swordfish::nn

#endif // SWORDFISH_NN_BATCH_H
