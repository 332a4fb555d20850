/**
 * @file
 * The backend registry: a BackendApi lifecycle wrapper around each
 * execution path (digital reference, analytical crossbar, measured
 * library) plus a process-wide registry that creates them by family name.
 *
 * The lifecycle mirrors vendor backend APIs (initialize / run-program):
 * each evaluation entry point names the family its evaluation implies
 * (digital for quantized, measured when the scenario uses the library,
 * else analytical), creates the api through the registry, initializes it
 * (typed validation of device / remap / noise / ensemble configs), and
 * runs the evaluation through it, whose read loop compiles the model once
 * (AOT tile programming) before the first read. Every configuration
 * failure is a typed core::CompileError — the registry never panics on
 * bad configuration, so tests and config readers can assert on the
 * failure kind.
 */

#ifndef SWORDFISH_CORE_REGISTRY_H
#define SWORDFISH_CORE_REGISTRY_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "basecall/basecaller.h"
#include "core/nonideality.h"
#include "core/plan.h"
#include "core/vmm_backend.h"
#include "nn/model.h"

namespace swordfish::core {

/**
 * Everything a backend family needs to build an execution backend. Fields
 * irrelevant to a family are ignored (the digital reference reads only
 * quant; the crossbar families read scenario/remap/seed/ensemble/faults).
 */
struct BackendSpec
{
    NonIdealityConfig scenario;      ///< crossbar families
    SramRemapConfig remap;           ///< crossbar families (RSA remap)
    QuantConfig quant;               ///< digital family
    std::uint64_t seed = 1;          ///< programming seed (one per MC run)
    /** Unread (see ExecMode): kept because benchmark/tracing.cpp assigns
     *  it from BackendSelector::mode. */
    ExecMode mode = ExecMode::Compiled;
    EnsembleConfig ensemble;         ///< crossbar families (replica K)
    FaultConfig faults = envFaultConfig(); ///< crossbar families
};

/**
 * Lifecycle wrapper around one execution backend. Construction is cheap
 * and never fails; initialize() performs the typed validation and builds
 * the underlying backend; runProgram() executes one evaluation through it
 * (compiling the model on the backend before the first read).
 */
class BackendApi
{
  public:
    virtual ~BackendApi() = default;

    /** The registry family name this api was created under. */
    const std::string& name() const { return name_; }

    const BackendSpec& spec() const { return spec_; }

    /**
     * Validate the spec and construct the execution backend. Must be
     * called (and succeed) before execution()/runProgram(). Returns typed
     * errors: InvalidDeviceConfig, InvalidRemapFraction, InvalidNoiseSpec,
     * InvalidEnsemble, ScenarioMismatch.
     */
    virtual CompileError initialize() = 0;

    /**
     * Produce the model actually executed: the digital reference quantizes
     * VMM weights up front (the FPP X-Y precision constraint); every other
     * family deploys the model as-is. Default: plain copy.
     */
    virtual nn::SequenceModel
    deployModel(const nn::SequenceModel& model)
    {
        return model;
    }

    /**
     * Run one accuracy evaluation with the execution backend installed on
     * the model (basecall::evaluateAccuracy, whose read loop compiles the
     * model on it); the previous backend binding is restored (to ideal)
     * before returning.
     */
    virtual basecall::AccuracyResult
    runProgram(nn::SequenceModel& model, const basecall::EvalRequest& req);

    /** The underlying execution backend; initialize() must have run. */
    virtual nn::VmmBackend& execution() = 0;

  protected:
    BackendApi(std::string name, const BackendSpec& spec)
        : name_(std::move(name)), spec_(spec)
    {}

    std::string name_;
    BackendSpec spec_;
};

/**
 * Process-wide registry of the three backend families ("digital",
 * "analytical", "measured"). The factory map is filled once in the
 * constructor and only read afterwards, so concurrent create() calls
 * (one per Monte-Carlo run on the pool workers) need no lock.
 */
class BackendRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<BackendApi>(
        const std::string& name, const BackendSpec& spec)>;

    /** The process-wide instance. */
    static BackendRegistry& instance();

    /**
     * Create an api for a family. Unknown names yield nullptr and (when
     * `error` is non-null) a typed UnknownBackend error naming the
     * registered families.
     */
    std::unique_ptr<BackendApi> create(const std::string& name,
                                       const BackendSpec& spec,
                                       CompileError* error = nullptr) const;

    /** Registered family names, sorted. */
    std::vector<std::string> names() const;

  private:
    BackendRegistry();

    std::map<std::string, Factory> factories_;
};

} // namespace swordfish::core

#endif // SWORDFISH_CORE_REGISTRY_H
