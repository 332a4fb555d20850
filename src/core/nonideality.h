/**
 * @file
 * Non-ideality configuration: which device/circuit effects are modeled and
 * through which VMM Model Generator approach (paper Section 3.3).
 */

#ifndef SWORDFISH_CORE_NONIDEALITY_H
#define SWORDFISH_CORE_NONIDEALITY_H

#include <optional>
#include <string>

#include "core/health.h"
#include "crossbar/crossbar.h"
#include "crossbar/device.h"
#include "crossbar/library.h"
#include "tensor/quantize.h"

namespace swordfish::core {

/**
 * The five non-ideality configurations of Figs. 8/9/12/13. The first four
 * use the analytical model (approach #2); Measured uses the chip
 * measurement library (approach #1).
 */
enum class NonIdealityKind
{
    None,          ///< ideal digital execution (quantization only)
    SynapticWires, ///< write variation + wire IR drop + sneak paths
    SenseAdc,      ///< ADC / sensing circuit non-idealities
    DacDriver,     ///< DAC / input driver non-idealities
    Combined,      ///< all analytical non-idealities together
    Measured       ///< chip measurement library (approach #1)
};

/** Paper-style label for a kind. */
inline const char*
nonIdealityName(NonIdealityKind kind)
{
    switch (kind) {
      case NonIdealityKind::None: return "Ideal";
      case NonIdealityKind::SynapticWires: return "Synaptic+Wires";
      case NonIdealityKind::SenseAdc: return "Sense+ADC";
      case NonIdealityKind::DacDriver: return "DAC+Driver";
      case NonIdealityKind::Combined: return "Combined";
      default: return "Measured";
    }
}

/** All five evaluated kinds in figure order. */
inline std::vector<NonIdealityKind>
figureEightSweep()
{
    return {NonIdealityKind::SynapticWires, NonIdealityKind::SenseAdc,
            NonIdealityKind::DacDriver, NonIdealityKind::Combined,
            NonIdealityKind::Measured};
}

/** Full non-ideality scenario for one evaluation. */
struct NonIdealityConfig
{
    NonIdealityKind kind = NonIdealityKind::Combined;
    crossbar::CrossbarConfig crossbar; ///< geometry, circuits, scheme
    crossbar::LibraryStats library;    ///< Measured-mode statistics
    QuantConfig quant = QuantConfig::deployment();

    /**
     * Explicit composed noise spec (the SWORDFISH_NOISE grammar, see
     * core::NoiseModel::parse). Empty = the preset implied by `kind`,
     * subject to the process-wide SWORDFISH_NOISE override. A non-empty
     * spec always wins, which is how the golden snapshot pins its presets.
     * Its deltas compose onto the preset of `kind`.
     */
    std::string noise;

    /**
     * Self-healing policy of the backends built for this scenario
     * (core/health.h). Unset = the SWORDFISH_REFRESH policy
     * (envRefreshConfig()); a set value wins even when all-off. Resolved
     * once, when a backend is built.
     */
    std::optional<RefreshConfig> refresh;

    /** Map the kind to crossbar noise toggles (analytical approaches). */
    crossbar::NoiseToggles
    toggles() const
    {
        using crossbar::NoiseToggles;
        switch (kind) {
          case NonIdealityKind::None: return NoiseToggles::allOff();
          case NonIdealityKind::SynapticWires:
            return NoiseToggles::synapticWires();
          case NonIdealityKind::SenseAdc: return NoiseToggles::senseAdc();
          case NonIdealityKind::DacDriver:
            return NoiseToggles::dacDriver();
          default: return NoiseToggles::combined();
        }
    }

    bool usesLibrary() const { return kind == NonIdealityKind::Measured; }

    std::string
    describe() const
    {
        return std::string(nonIdealityName(kind)) + " on "
            + crossbar.describe() + ", " + quant.name();
    }
};

} // namespace swordfish::core

#endif // SWORDFISH_CORE_NONIDEALITY_H
