#include "area.h"

namespace swordfish::arch {

AreaReport
computeArea(const PartitionMap& map, const AreaParams& params,
            double sram_fraction, int weight_bits,
            std::size_t ensemble_k)
{
    AreaReport report;
    const double um2_to_mm2 = 1e-6;
    const double size = static_cast<double>(map.crossbarSize);
    const double tiles = static_cast<double>(map.totalTiles());
    const double k = static_cast<double>(ensemble_k > 0 ? ensemble_k : 1);

    // Each tile: size^2 differential pairs (2 cells per weight), shared
    // column ADCs, one DAC/driver per row. Ensemble replicas multiply
    // the arrays and their row drivers; the averaged analog output still
    // feeds one shared ADC bank per tile group.
    report.crossbarMm2 = k * tiles * size * size * 2.0 * params.cellUm2
        * um2_to_mm2;
    report.adcMm2 = tiles * static_cast<double>(kAdcsPerTile)
        * params.adcUm2 * um2_to_mm2;
    report.dacMm2 = k * tiles * size * params.dacPerRowUm2 * um2_to_mm2;

    // RSA SRAM: remapped weights at deployment precision, plus mapping
    // metadata and the merge path (paper Section 3.4.4 overhead list).
    const double sram_weights = static_cast<double>(
        map.totalMappedWeights()) * sram_fraction;
    report.sramMm2 = (sram_weights * weight_bits * params.sramBitUm2
                      + sram_weights * params.sramCtrlPerWeightUm2)
        * um2_to_mm2;

    const double analog = report.crossbarMm2 + report.adcMm2
        + report.dacMm2;
    report.digitalMm2 = analog * params.digitalOverhead;
    report.totalMm2 = analog + report.digitalMm2 + report.sramMm2;
    return report;
}

} // namespace swordfish::arch
