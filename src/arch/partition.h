/**
 * @file
 * The Partition & Map module (Swordfish module 1, paper Section 3.2):
 * enumerate every VMM weight matrix of a basecaller network, decide the
 * crossbar tiling of each, and report the mapping.
 */

#ifndef SWORDFISH_ARCH_PARTITION_H
#define SWORDFISH_ARCH_PARTITION_H

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "nn/model.h"

namespace swordfish::arch {

/** Kind of layer a VMM site belongs to (PUMA supports exactly these). */
enum class VmmKind { Convolution, LstmInput, LstmRecurrent, Linear };

/** Readable kind name. */
inline const char*
vmmKindName(VmmKind kind)
{
    switch (kind) {
      case VmmKind::Convolution: return "conv";
      case VmmKind::LstmInput: return "lstm-input";
      case VmmKind::LstmRecurrent: return "lstm-recurrent";
      default: return "linear";
    }
}

/**
 * How a rows x cols weight tiles onto size x size crossbars: the one tiling
 * that programming, execution, the conversion counters, refresh and the
 * energy and area models all read. Tiles are numbered in grid order
 * (rt * colTiles + ct); the last row tile and the last column tile are
 * ragged.
 */
struct TileGrid
{
    std::size_t rows = 0; ///< output features
    std::size_t cols = 0; ///< input features (crossbar fan-in)
    std::size_t size = 0; ///< crossbar edge
    std::size_t rowTiles = 0;
    std::size_t colTiles = 0;

    TileGrid(std::size_t rows, std::size_t cols, std::size_t size);

    std::size_t tileCount() const { return rowTiles * colTiles; }
    std::size_t weightCount() const { return rows * cols; }

    std::size_t rowBegin(std::size_t rt) const { return rt * size; }
    std::size_t rowEnd(std::size_t rt) const
    {
        return std::min(rows, rowBegin(rt) + size);
    }
    std::size_t colBegin(std::size_t ct) const { return ct * size; }
    std::size_t colEnd(std::size_t ct) const
    {
        return std::min(cols, colBegin(ct) + size);
    }

    /** DAC conversions per input row: each row tile drives every input of
     *  its column tiles. */
    std::size_t dacPerRow() const { return cols * rowTiles; }
    /** ADC conversions per input row: each column tile converts a partial
     *  sum for every output of its row tiles. */
    std::size_t adcPerRow() const { return rows * colTiles; }
};

/** One weight matrix mapped onto crossbar tiles. */
struct VmmSite : TileGrid
{
    std::string name; ///< parameter name (e.g. "lstm0.wih")
    VmmKind kind = VmmKind::Linear;
};

/** The complete mapping of a network onto a crossbar fabric. */
struct PartitionMap
{
    std::size_t crossbarSize = 64;
    std::vector<VmmSite> sites;

    std::size_t
    totalTiles() const
    {
        std::size_t n = 0;
        for (const VmmSite& s : sites)
            n += s.tileCount();
        return n;
    }

    std::size_t
    totalMappedWeights() const
    {
        std::size_t n = 0;
        for (const VmmSite& s : sites)
            n += s.weightCount();
        return n;
    }

    /** Multi-line mapping report for logs/examples. */
    std::string describe() const;
};

/**
 * Build the partition map for a model on crossbars of the given size.
 * Walks the network layers; every Linear/Conv1d/Lstm contributes its VMM
 * weight matrices, biases and activations stay digital (paper Section 3.2
 * step 1).
 */
PartitionMap buildPartitionMap(nn::SequenceModel& model,
                               std::size_t crossbar_size);

} // namespace swordfish::arch

#endif // SWORDFISH_ARCH_PARTITION_H
