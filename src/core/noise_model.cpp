#include "noise_model.h"

#include <limits>
#include <sstream>

#include "util/env.h"
#include "util/logging.h"
#include "util/spec.h"

namespace swordfish::core {

namespace {

bool
parseOnOff(const std::string& s, bool& out)
{
    if (s == "on" || s == "1" || s == "true") {
        out = true;
        return true;
    }
    if (s == "off" || s == "0" || s == "false") {
        out = false;
        return true;
    }
    return false;
}

bool
parsePresetName(const std::string& s, crossbar::NoiseToggles& out)
{
    using crossbar::NoiseToggles;
    if (s == "ideal" || s == "none")
        out = NoiseToggles::allOff();
    else if (s == "synaptic_wires")
        out = NoiseToggles::synapticWires();
    else if (s == "sense_adc")
        out = NoiseToggles::senseAdc();
    else if (s == "dac_driver")
        out = NoiseToggles::dacDriver();
    else if (s == "combined")
        out = NoiseToggles::combined();
    else
        return false;
    return true;
}

} // namespace

bool
operator==(const NoiseModel& a, const NoiseModel& b)
{
    const crossbar::NoiseToggles& ta = a.toggles;
    const crossbar::NoiseToggles& tb = b.toggles;
    return ta.conductanceQuant == tb.conductanceQuant
        && ta.writeVariation == tb.writeVariation
        && ta.wireResistance == tb.wireResistance
        && ta.sneakPaths == tb.sneakPaths
        && ta.dacNonideal == tb.dacNonideal
        && ta.adcNonideal == tb.adcNonideal && a.extended == b.extended;
}

NoiseModel
NoiseModel::preset(NonIdealityKind kind)
{
    NoiseModel model;
    // Exactly NonIdealityConfig::toggles(): the five legacy bar groups,
    // extended sources all off — the bitwise-compatibility contract.
    NonIdealityConfig probe;
    probe.kind = kind;
    model.toggles = probe.toggles();
    return model;
}

bool
NoiseModel::parse(const std::string& spec, const NoiseModel& base,
                  NoiseModel& out, std::string& error)
{
    NoiseModel cfg = base;
    auto value_in = [&](const std::string& key, const std::string& value,
                        double& field, double lo, double hi,
                        bool open_hi) -> bool {
        double v = 0.0;
        if (!parseFiniteDouble(value, v) || v < lo
            || (open_hi ? v >= hi : v > hi)) {
            std::ostringstream os;
            os << "noise spec: '" << key << "' must be a number in ["
               << lo << ", " << hi << (open_hi ? ")" : "]") << ", got '"
               << value << "'";
            error = os.str();
            return false;
        }
        field = v;
        return true;
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    auto toggle = [&](const std::string& key, const std::string& value,
                      bool& field) -> bool {
        if (!parseOnOff(value, field)) {
            error = "noise spec: '" + key + "' must be on|off, got '"
                + value + "'";
            return false;
        }
        return true;
    };
    const auto on_pair = [&](const std::string& key,
                             const std::string& value) -> bool {
        if (key == "preset") {
            if (!parsePresetName(value, cfg.toggles)) {
                error = "noise spec: unknown preset '" + value
                    + "' (expected ideal, synaptic_wires, sense_adc, "
                      "dac_driver or combined)";
                return false;
            }
            return true;
        }
        if (key == "cquant")
            return toggle(key, value, cfg.toggles.conductanceQuant);
        if (key == "write_var")
            return toggle(key, value, cfg.toggles.writeVariation);
        if (key == "wire")
            return toggle(key, value, cfg.toggles.wireResistance);
        if (key == "sneak")
            return toggle(key, value, cfg.toggles.sneakPaths);
        if (key == "dac")
            return toggle(key, value, cfg.toggles.dacNonideal);
        if (key == "adc")
            return toggle(key, value, cfg.toggles.adcNonideal);
        if (key == "rtn.amp")
            return value_in(key, value, cfg.extended.rtn.amplitude, 0.0,
                            1.0, /*open_hi=*/true);
        if (key == "rtn.dwell_up") {
            if (!value_in(key, value, cfg.extended.rtn.dwellUp, 0.0, kInf,
                          false))
                return false;
            if (cfg.extended.rtn.dwellUp <= 0.0) {
                error = "noise spec: 'rtn.dwell_up' must be > 0";
                return false;
            }
            return true;
        }
        if (key == "rtn.dwell_down") {
            if (!value_in(key, value, cfg.extended.rtn.dwellDown, 0.0,
                          kInf, false))
                return false;
            if (cfg.extended.rtn.dwellDown <= 0.0) {
                error = "noise spec: 'rtn.dwell_down' must be > 0";
                return false;
            }
            return true;
        }
        if (key == "disturb.rate")
            return value_in(key, value, cfg.extended.disturb.rate, 0.0,
                            kInf, false);
        if (key == "disturb.reads")
            return value_in(key, value, cfg.extended.disturb.reads, 0.0,
                            kInf, false);
        if (key == "tdrift.t") {
            if (!value_in(key, value, cfg.extended.tdrift.temperatureK,
                          0.0, kInf, false))
                return false;
            if (cfg.extended.tdrift.temperatureK <= 0.0) {
                error = "noise spec: 'tdrift.t' must be > 0 kelvin";
                return false;
            }
            return true;
        }
        if (key == "tdrift.ea")
            return value_in(key, value, cfg.extended.tdrift.activationEv,
                            0.0, kInf, false);
        if (key == "tdrift.hours")
            return value_in(key, value, cfg.extended.tdrift.hours, 0.0,
                            kInf, false);
        if (key == "tdrift.nu")
            return value_in(key, value, cfg.extended.tdrift.nu, 0.0, kInf,
                            false);
        if (key == "tdrift.nu_sigma")
            return value_in(key, value, cfg.extended.tdrift.nuSigma, 0.0,
                            kInf, false);
        if (key == "cwrite.sigma")
            return value_in(key, value, cfg.extended.cwrite.sigma, 0.0,
                            kInf, false);
        if (key == "cwrite.len")
            return value_in(key, value, cfg.extended.cwrite.lengthCells,
                            0.0, kInf, false);
        error = "noise spec: unknown key '" + key + "'";
        return false;
    };
    if (!parseKeyValueSpec(spec, "noise", error, on_pair))
        return false;
    out = cfg;
    return true;
}

bool
NoiseModel::parse(const std::string& spec, NoiseModel& out,
                  std::string& error)
{
    return parse(spec, preset(NonIdealityKind::Combined), out, error);
}

std::string
NoiseModel::describe() const
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    auto onoff = [](bool b) { return b ? "on" : "off"; };
    os << "cquant=" << onoff(toggles.conductanceQuant)
       << ",write_var=" << onoff(toggles.writeVariation)
       << ",wire=" << onoff(toggles.wireResistance)
       << ",sneak=" << onoff(toggles.sneakPaths)
       << ",dac=" << onoff(toggles.dacNonideal)
       << ",adc=" << onoff(toggles.adcNonideal);
    if (extended.rtn.enabled())
        os << ",rtn.amp=" << extended.rtn.amplitude
           << ",rtn.dwell_up=" << extended.rtn.dwellUp
           << ",rtn.dwell_down=" << extended.rtn.dwellDown;
    if (extended.disturb.enabled())
        os << ",disturb.rate=" << extended.disturb.rate
           << ",disturb.reads=" << extended.disturb.reads;
    if (extended.tdrift.enabled())
        os << ",tdrift.t=" << extended.tdrift.temperatureK
           << ",tdrift.ea=" << extended.tdrift.activationEv
           << ",tdrift.hours=" << extended.tdrift.hours
           << ",tdrift.nu=" << extended.tdrift.nu
           << ",tdrift.nu_sigma=" << extended.tdrift.nuSigma;
    if (extended.cwrite.enabled())
        os << ",cwrite.sigma=" << extended.cwrite.sigma
           << ",cwrite.len=" << extended.cwrite.lengthCells;
    return os.str();
}

NoiseModelBuilder::NoiseModelBuilder(NonIdealityKind base)
    : model_(NoiseModel::preset(base))
{
}

NoiseModelBuilder
NoiseModelBuilder::fromPreset(NonIdealityKind kind)
{
    return NoiseModelBuilder(kind);
}

NoiseModelBuilder&
NoiseModelBuilder::conductanceQuant(bool on)
{
    model_.toggles.conductanceQuant = on;
    return *this;
}

NoiseModelBuilder&
NoiseModelBuilder::writeVariation(bool on)
{
    model_.toggles.writeVariation = on;
    return *this;
}

NoiseModelBuilder&
NoiseModelBuilder::wireResistance(bool on)
{
    model_.toggles.wireResistance = on;
    return *this;
}

NoiseModelBuilder&
NoiseModelBuilder::sneakPaths(bool on)
{
    model_.toggles.sneakPaths = on;
    return *this;
}

NoiseModelBuilder&
NoiseModelBuilder::dacNonideal(bool on)
{
    model_.toggles.dacNonideal = on;
    return *this;
}

NoiseModelBuilder&
NoiseModelBuilder::adcNonideal(bool on)
{
    model_.toggles.adcNonideal = on;
    return *this;
}

NoiseModelBuilder&
NoiseModelBuilder::randomTelegraphNoise(double amplitude, double dwell_up,
                                        double dwell_down)
{
    if (amplitude < 0.0 || amplitude >= 1.0 || dwell_up <= 0.0
        || dwell_down <= 0.0)
        panic("NoiseModelBuilder::randomTelegraphNoise: amplitude must be "
              "in [0, 1) and dwell times > 0");
    model_.extended.rtn = {amplitude, dwell_up, dwell_down};
    return *this;
}

NoiseModelBuilder&
NoiseModelBuilder::readDisturb(double rate, double reads)
{
    if (rate < 0.0 || reads < 0.0)
        panic("NoiseModelBuilder::readDisturb: rate and reads must be "
              ">= 0");
    model_.extended.disturb = {rate, reads};
    return *this;
}

NoiseModelBuilder&
NoiseModelBuilder::thermalDrift(double temperature_k, double activation_ev,
                                double hours, double nu, double nu_sigma)
{
    if (temperature_k <= 0.0 || activation_ev < 0.0 || hours < 0.0
        || nu < 0.0 || nu_sigma < 0.0)
        panic("NoiseModelBuilder::thermalDrift: temperature must be > 0 "
              "and the remaining parameters >= 0");
    model_.extended.tdrift = {temperature_k, activation_ev, hours, nu,
                              nu_sigma};
    return *this;
}

NoiseModelBuilder&
NoiseModelBuilder::correlatedWriteVariation(double sigma,
                                            double length_cells)
{
    if (sigma < 0.0 || length_cells < 0.0)
        panic("NoiseModelBuilder::correlatedWriteVariation: sigma and "
              "length must be >= 0");
    model_.extended.cwrite = {sigma, length_cells};
    return *this;
}

const std::string&
noiseOverrideSpec()
{
    // runtimeConfig() holds the snapshot; validate it once.
    static const std::string& spec = []() -> const std::string& {
        const std::string& env = runtimeConfig().noise;
        NoiseModel probe;
        std::string error;
        if (!env.empty() && !NoiseModel::parse(env, probe, error))
            fatal("SWORDFISH_NOISE: ", error);
        return env;
    }();
    return spec;
}

NoiseModel
resolveNoiseModel(const NonIdealityConfig& config)
{
    const NoiseModel base = NoiseModel::preset(config.kind);
    std::string spec = config.noise;
    std::string origin = "NonIdealityConfig::noise";
    if (spec.empty()) {
        // The env override refines the noisy arms of an experiment only:
        // the ideal control (None) and the chip-measurement library
        // (Measured) keep their meaning under a global composition sweep.
        if (config.kind == NonIdealityKind::None || config.usesLibrary())
            return base;
        spec = noiseOverrideSpec();
        origin = "SWORDFISH_NOISE";
        if (spec.empty())
            return base;
    }
    NoiseModel model;
    std::string error;
    if (!NoiseModel::parse(spec, base, model, error))
        panic(origin, ": ", error);
    return model;
}

CompileError
validateNoiseSpec(const NonIdealityConfig& config)
{
    if (config.noise.empty())
        return {};
    NoiseModel model;
    std::string error;
    if (!NoiseModel::parse(config.noise, NoiseModel::preset(config.kind),
                           model, error))
        return {CompileFailure::InvalidNoiseSpec, error};
    return {};
}

} // namespace swordfish::core
