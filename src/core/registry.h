/**
 * @file
 * The pluggable backend registry: a BackendApi lifecycle wrapper around
 * every execution path (digital reference, true-integer int8, analytical
 * crossbar, measured library) plus a process-wide registry that creates
 * them by family name.
 *
 * The lifecycle mirrors vendor backend APIs (initialize / compile /
 * run-program / wait-for-idle): the evaluation entry points resolve a
 * family (from EvalRequest::backend, SWORDFISH_BACKEND, or the request
 * shape), create the api through the registry, initialize it (typed
 * validation of device / remap / quantization configs), compile the model
 * (AOT programming + plan lowering, timed), and run the evaluation
 * through it. Every failure along the way is a typed core::CompileError
 * — the registry never panics on bad configuration, so tests and config
 * readers can assert on the failure kind.
 */

#ifndef SWORDFISH_CORE_REGISTRY_H
#define SWORDFISH_CORE_REGISTRY_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
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
    QuantConfig quant;               ///< digital / int8 families
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
 * the underlying backend; compile() pays the AOT per-weight setup;
 * runProgram() executes one evaluation through it.
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
     * called (and succeed) before execution()/compile()/runProgram().
     * Returns typed errors: InvalidDeviceConfig, InvalidRemapFraction,
     * QuantizationDisabled, ScenarioMismatch.
     */
    virtual CompileError initialize() = 0;

    /**
     * AOT compile: offer every model parameter to the execution backend
     * (crossbar programming + plan lowering, int8 weight quantization)
     * and seal the result. Returns per-compile stats with wall time; a
     * typed error leaves the backend unusable.
     */
    virtual CompileResult compile(nn::SequenceModel& model);

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
     * the model; the previous backend binding is restored (to ideal)
     * before returning.
     */
    virtual basecall::AccuracyResult
    runProgram(nn::SequenceModel& model, const basecall::EvalRequest& req);

    /**
     * Block until in-flight work has drained. Execution here is
     * synchronous (runProgram returns only after the evaluation), so the
     * default is a no-op; the hook exists for API parity with
     * queue-driven hardware backends.
     */
    virtual void waitForIdle() {}

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
 * Process-wide registry of backend families. The four built-ins
 * ("digital", "int8", "analytical", "measured") are registered on first
 * use; experiments can register additional families at startup.
 */
class BackendRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<BackendApi>(
        const std::string& name, const BackendSpec& spec)>;

    /** The process-wide instance (built-ins pre-registered). */
    static BackendRegistry& instance();

    /** Register (or replace) a family. */
    void registerBackend(const std::string& name, Factory factory);

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

    mutable std::mutex mutex_;
    std::map<std::string, Factory> factories_;
};

/**
 * Resolve the effective selector for a request: EvalRequest::backend when
 * set, else the SWORDFISH_BACKEND process default. A malformed request
 * selector panics with the parse message (evaluation entry points have no
 * typed-error channel; tests exercise parseBackendSelector directly).
 */
BackendSelector resolveBackendSelector(const basecall::EvalRequest& req);

} // namespace swordfish::core

#endif // SWORDFISH_CORE_REGISTRY_H
