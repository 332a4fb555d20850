#include "registry.h"

#include <utility>

#include "core/deploy.h"

namespace swordfish::core {

namespace {

/**
 * Digital fixed-point reference (QuantOnlyBackend): exact float GEMM with
 * quantized activations; weights are quantized at deployModel() time.
 */
class DigitalBackendApi : public BackendApi
{
  public:
    DigitalBackendApi(std::string name, const BackendSpec& spec)
        : BackendApi(std::move(name), spec)
    {}

    CompileError
    initialize() override
    {
        backend_ = std::make_unique<QuantOnlyBackend>(spec_.quant);
        return {};
    }

    nn::SequenceModel
    deployModel(const nn::SequenceModel& model) override
    {
        return quantizeModel(model, spec_.quant);
    }

    nn::VmmBackend&
    execution() override
    {
        return *backend_;
    }

  private:
    std::unique_ptr<QuantOnlyBackend> backend_;
};

/**
 * Crossbar execution (CrossbarVmmBackend), family "analytical" or
 * "measured". initialize() validates the device/crossbar config, the RSA
 * remap, and that the family matches the scenario's modeling approach.
 */
class CrossbarBackendApi : public BackendApi
{
  public:
    CrossbarBackendApi(std::string name, const BackendSpec& spec)
        : BackendApi(std::move(name), spec)
    {}

    CompileError
    initialize() override
    {
        if (const crossbar::ConfigCheck check =
                crossbar::validateCrossbarConfig(spec_.scenario.crossbar))
            return {CompileFailure::InvalidDeviceConfig, check.message};
        if (const CompileError err = validateRemapConfig(spec_.remap))
            return err;
        if (const CompileError err = validateNoiseSpec(spec_.scenario))
            return err;
        if (const CompileError err = validateEnsembleConfig(spec_.ensemble))
            return err;
        const bool wants_library = name_ == "measured";
        if (spec_.scenario.usesLibrary() != wants_library)
            return {CompileFailure::ScenarioMismatch,
                    "backend family '" + name_ + "' does not match the "
                        + std::string(wants_library ? "analytical"
                                                    : "measured")
                        + " scenario '"
                        + nonIdealityName(spec_.scenario.kind) + "'"};
        backend_ = std::make_unique<CrossbarVmmBackend>(
            spec_.scenario, spec_.seed, spec_.faults);
        backend_->setSramRemap(spec_.remap);
        backend_->setEnsemble(spec_.ensemble);
        return {};
    }

    nn::VmmBackend&
    execution() override
    {
        return *backend_;
    }

  private:
    std::unique_ptr<CrossbarVmmBackend> backend_;
};

} // namespace

basecall::AccuracyResult
BackendApi::runProgram(nn::SequenceModel& model,
                       const basecall::EvalRequest& req)
{
    model.setBackend(&execution());
    const basecall::AccuracyResult result =
        basecall::evaluateAccuracy(model, req);
    model.setBackend(nullptr);
    return result;
}

BackendRegistry&
BackendRegistry::instance()
{
    static BackendRegistry registry;
    return registry;
}

BackendRegistry::BackendRegistry()
{
    factories_["digital"] = [](const std::string& name,
                               const BackendSpec& spec) {
        return std::make_unique<DigitalBackendApi>(name, spec);
    };
    const auto crossbar_factory = [](const std::string& name,
                                     const BackendSpec& spec) {
        return std::make_unique<CrossbarBackendApi>(name, spec);
    };
    factories_["analytical"] = crossbar_factory;
    factories_["measured"] = crossbar_factory;
}

std::unique_ptr<BackendApi>
BackendRegistry::create(const std::string& name, const BackendSpec& spec,
                        CompileError* error) const
{
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
        if (error != nullptr) {
            std::string known;
            for (const std::string& n : names())
                known += (known.empty() ? "" : ", ") + n;
            *error = {CompileFailure::UnknownBackend,
                      "unknown backend family '" + name
                          + "' (registered: " + known + ")"};
        }
        return nullptr;
    }
    if (error != nullptr)
        *error = {};
    return it->second(name, spec);
}

std::vector<std::string>
BackendRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_)
        out.push_back(name);
    return out;
}

} // namespace swordfish::core
