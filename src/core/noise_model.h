/**
 * @file
 * The composable NoiseModel layer.
 *
 * A NoiseModel is the full noise composition one crossbar backend runs
 * under: the six legacy non-ideality groups (crossbar::NoiseToggles —
 * write variation, IR drop, sneak paths, DAC/ADC effects, conductance
 * quantization) re-expressed as orthogonal sources, plus the four
 * extended device sources (crossbar::ExtendedNoise — RTN, read disturb,
 * temperature-dependent drift, spatially correlated write variation).
 *
 * Models come from three places, in precedence order:
 *
 *  1. an explicit spec on the scenario (NonIdealityConfig::noise — set by
 *     JobSpec's "noise" field or directly by callers),
 *  2. the SWORDFISH_NOISE override, read once at startup (skipped for
 *     the None and Measured kinds so the ideal-control and chip-library
 *     arms of an experiment stay honest),
 *  3. the canned preset implied by the scenario's NonIdealityKind —
 *     bitwise identical to the pre-NoiseModel hard-wired toggles.
 *
 * A spec is a delta over the scenario's preset, using the FaultConfig
 * token grammar (key=value pairs separated by ',', ';' or whitespace):
 *
 *   preset=ideal|synaptic_wires|sense_adc|dac_driver|combined
 *                                (replace the base toggles)
 *   cquant|write_var|wire|sneak|dac|adc=on|off       (single toggles)
 *   rtn.amp=F [0,1)   rtn.dwell_up=F >0   rtn.dwell_down=F >0
 *   disturb.rate=F >=0           disturb.reads=F >=0
 *   tdrift.t=F kelvin >0  tdrift.ea=F eV >=0  tdrift.hours=F >=0
 *   tdrift.nu=F >=0       tdrift.nu_sigma=F >=0
 *   cwrite.sigma=F >=0    cwrite.len=F cells >=0
 *
 * An extended source is on only when all its enabling keys are positive,
 * and each of them defaults to 0: RTN needs rtn.amp; read disturb
 * disturb.rate and disturb.reads; thermal drift tdrift.hours and
 * tdrift.nu; correlated write cwrite.sigma and cwrite.len. The other keys
 * only shape a source that is on. A spec that sets some but not all of a
 * source's enabling keys parses and leaves that source off, and
 * describe() omits it.
 *
 * Later duplicates of the same key win; distinct keys commute, so any
 * token order yields the same model (the documented order-independence
 * law). Parsing never leaves partial state in `out` on failure.
 */

#ifndef SWORDFISH_CORE_NOISE_MODEL_H
#define SWORDFISH_CORE_NOISE_MODEL_H

#include <string>

#include "core/nonideality.h"
#include "core/plan.h"
#include "crossbar/crossbar.h"
#include "crossbar/noise_sources.h"

namespace swordfish::core {

/** One backend's full noise composition: legacy toggles + new sources. */
struct NoiseModel
{
    crossbar::NoiseToggles toggles = crossbar::NoiseToggles::combined();
    crossbar::ExtendedNoise extended;

    /** The canned composition for a legacy kind — bitwise identical to
     *  the pre-NoiseModel presets (extended sources all off). */
    static NoiseModel preset(NonIdealityKind kind);

    /**
     * Parse a delta spec onto `base`. On failure returns false with a
     * diagnostic in `error` and leaves `out` untouched.
     */
    static bool parse(const std::string& spec, const NoiseModel& base,
                      NoiseModel& out, std::string& error);

    /** parse() onto the Combined preset (the standalone-spec reading). */
    static bool parse(const std::string& spec, NoiseModel& out,
                      std::string& error);

    /** Canonical spec string; parse(describe()) reproduces the model. */
    std::string describe() const;
};

bool operator==(const NoiseModel& a, const NoiseModel& b);
inline bool
operator!=(const NoiseModel& a, const NoiseModel& b)
{
    return !(a == b);
}

/**
 * The SWORDFISH_NOISE override spec ("" = none), validated once (a
 * malformed spec is fatal). Stored as a spec so it composes onto each
 * scenario's own preset at resolution time.
 */
const std::string& noiseOverrideSpec();

/**
 * Resolve the model a backend will run `config` under (precedence above).
 * Panics on a malformed explicit spec — registry admission and
 * JobSpec::validate() reject those earlier with typed errors.
 */
NoiseModel resolveNoiseModel(const NonIdealityConfig& config);

/** Typed admission check for an explicit scenario spec. */
CompileError validateNoiseSpec(const NonIdealityConfig& config);

} // namespace swordfish::core

#endif // SWORDFISH_CORE_NOISE_MODEL_H
