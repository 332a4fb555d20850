#include "registry.h"

#include <utility>

#include "core/deploy.h"
#include "util/timer.h"

namespace swordfish::core {

namespace {

/** Count the crossbar-mapped parameters a compile sweep will touch. */
std::size_t
countVmmWeights(nn::SequenceModel& model)
{
    std::size_t n = 0;
    for (nn::Parameter* p : model.parameters())
        if (isVmmWeight(p->name))
            ++n;
    return n;
}

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

    CompileResult
    compile(nn::SequenceModel& model) override
    {
        CompileResult result;
        Stopwatch watch;
        result.error = backend_->compile(model);
        result.seconds = watch.seconds();
        if (!result.success())
            return result;
        result.weightsCompiled = countVmmWeights(model);
        result.tilesCompiled = backend_->programmedTiles();
        return result;
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

CompileResult
BackendApi::compile(nn::SequenceModel& model)
{
    // Generic AOT sweep for backends without a typed per-weight compile:
    // offer every parameter, then seal. prepareWeight() implementations
    // are idempotent, so re-compiling a model is safe.
    CompileResult result;
    Stopwatch watch;
    nn::VmmBackend& exec = execution();
    for (nn::Parameter* p : model.parameters()) {
        exec.prepareWeight(p->name, p->value);
        if (isVmmWeight(p->name))
            ++result.weightsCompiled;
    }
    exec.finishCompile();
    result.seconds = watch.seconds();
    return result;
}

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
