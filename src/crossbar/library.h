/**
 * @file
 * Emulated chip-measurement library (the paper's VMM Model Generator
 * approach #1).
 *
 * The paper queries a library of >= 10^4 measured crossbar transfer
 * instances per array size; an output is drawn at random per tile so
 * tile-to-tile manufacturing differences are captured. We emulate the
 * library with a *higher-order* stochastic process than the analytical
 * model (approach #2): heavier-tailed cell errors, column-correlated gain
 * errors, and stuck-at cells. This keeps the two modeling paths genuinely
 * distinct, and makes "Measured" typically worse than "Combined" — matching
 * the paper's Figs. 8/9 observation 3 (errors are non-additive and the
 * measured library captures effects the analytical model misses).
 *
 * Profiles are generated deterministically from (library seed, array size,
 * instance id) on demand, so a 10^4-instance library costs no memory.
 */

#ifndef SWORDFISH_CROSSBAR_LIBRARY_H
#define SWORDFISH_CROSSBAR_LIBRARY_H

#include <cstdint>

#include "tensor/matrix.h"
#include "util/rng.h"

namespace swordfish::crossbar {

using swordfish::Matrix;

/** Statistics of the characterized chip population. */
struct LibraryStats
{
    double cellSigma = 0.20;        ///< per-cell multiplicative error sigma
    double cellAddSigma = 0.10;    ///< per-cell absolute error (x absMax)
    double cellTailProb = 0.03;    ///< probability of a heavy-tail cell
    double cellTailScale = 3.5;     ///< tail magnitude multiplier
    double columnGainSigma = 0.05; ///< correlated per-column gain sigma
    double columnOffsetSigma = 0.03; ///< per-column offset (x absMax)
    double stuckProb = 0.01;       ///< stuck-at-level devices
};

/** One sampled tile transfer profile from the library. */
struct TileProfile
{
    Matrix cellError;              ///< per-cell multiplicative factor
    Matrix cellAddError;           ///< per-cell absolute error
                                   ///< (fraction of weight absMax)
    std::vector<float> columnGain; ///< per-output gain
    std::vector<float> columnOffset; ///< per-output additive offset
                                     ///< (fraction of weight absMax)
};

/** The measurement library for one array size. */
class MeasurementLibrary
{
  public:
    /**
     * @param array_size physical array dimension (64 or 256)
     * @param stats      population statistics
     * @param instances  library size (paper: >= 10^4)
     * @param seed       characterization campaign seed
     */
    MeasurementLibrary(std::size_t array_size, const LibraryStats& stats,
                       std::size_t instances = 10000,
                       std::uint64_t seed = 0xc41bULL);

    /**
     * Deterministically materialize library instance `id` for a tile of
     * the given logical shape (rows = outputs, cols = inputs).
     */
    TileProfile profile(std::size_t id, std::size_t rows,
                        std::size_t cols) const;

    /** Sample a uniformly random instance id using the caller's stream. */
    std::size_t
    sampleInstance(Rng& rng) const
    {
        return static_cast<std::size_t>(rng.next(instances_));
    }

    std::size_t instances() const { return instances_; }
    const LibraryStats& stats() const { return stats_; }

  private:
    std::size_t arraySize_;
    LibraryStats stats_;
    std::size_t instances_;
    std::uint64_t seed_;
};

} // namespace swordfish::crossbar

#endif // SWORDFISH_CROSSBAR_LIBRARY_H
