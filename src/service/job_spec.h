/**
 * @file
 * JobSpec: the canonical, schema-versioned, serializable description of
 * one basecalling job — the declarative counterpart of an EvalRequest.
 *
 * Where EvalRequest carries runtime bindings (a Dataset pointer, hooks),
 * a JobSpec names everything declaratively: which Table 2 dataset, the
 * model hyperparameters, the non-ideality scenario, quantization, fault /
 * refresh specs, and the request knobs. One JobSpec therefore round-trips
 * through JSON (spool files, the swordfishd wire protocol, bench configs)
 * and materializes into exactly one deterministic evaluation: same spec +
 * same seed => bitwise-identical results, whether run in-process by a CLI
 * driver or by a daemon worker on any scheduler interleaving.
 */

#ifndef SWORDFISH_SERVICE_JOB_SPEC_H
#define SWORDFISH_SERVICE_JOB_SPEC_H

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "basecall/bonito_lite.h"
#include "basecall/eval_request.h"
#include "core/nonideality.h"
#include "util/json.h"

namespace swordfish::service {

/** Which evaluation entry point a job drives. */
enum class JobKind
{
    Eval,      ///< ideal digital accuracy (basecall::evaluateAccuracy)
    NonIdeal,  ///< Monte-Carlo crossbar eval (core::evaluateNonIdealAccuracy)
    Quantized, ///< quantized digital eval (core::evaluateQuantizedAccuracy)
    Pipeline,  ///< full basecall->map->polish pipeline (basecall::runPipeline)
};

/** Stable wire label for a kind. */
const char* jobKindName(JobKind kind);

/** Parse a wire label; false on unknown names. */
bool parseJobKind(const std::string& name, JobKind& out);

/** Parse a scenario-kind label ("ideal", "combined", "measured", ...). */
bool parseScenarioKind(const std::string& name, core::NonIdealityKind& out);

/**
 * The declarative job description (schema version 1). Defaults describe a
 * small smoke-sized non-ideal evaluation so a near-empty spec is valid.
 */
struct JobSpec
{
    JobKind kind = JobKind::NonIdeal;
    std::string tenant = "default"; ///< quota accounting key

    // Dataset (declarative: materialized per job, never shared).
    std::string datasetId = "D1";  ///< Table 2 id, "D1".."D4"
    std::size_t datasetReads = 8;  ///< cap on materialized reads (0 = all)

    // Model hyperparameters (buildBonitoLite).
    basecall::BonitoLiteConfig model{};

    // Non-ideality scenario (kind NonIdeal only).
    std::string scenarioKind = "combined"; ///< parseScenarioKind vocabulary
    std::size_t crossbarSize = 64;         ///< array size (64 / 256)
    double remapFraction = 0.0;            ///< RSA SRAM remap fraction

    /**
     * Composable-noise spec (core::NoiseModel::parse grammar), composed
     * as a delta onto the scenario kind's preset. "" = the preset alone.
     */
    std::string noise;

    // Quantization: the scenario quant for NonIdeal, the evaluation quant
    // for Quantized. 32/32 = float baseline.
    int weightBits = 16;
    int activationBits = 16;

    // Per-job settings, like `noise`: runJobSpec binds `faults` onto the
    // request (EvalRequest::faults) and `refresh` onto the scenario
    // (NonIdealityConfig::refresh), so jobs with different settings run
    // side by side. "" = the daemon's SWORDFISH_FAULTS / SWORDFISH_REFRESH.
    std::string faults;  ///< util::FaultConfig::parse grammar
    std::string refresh; ///< core::RefreshConfig::parse grammar

    // Supervision knobs (wire fields "deadline_s" / "max_attempts").
    /**
     * Wall-clock deadline in seconds, enforced cooperatively: a watchdog
     * raises the job's stop flag once the deadline passes and the job is
     * marked TimedOut when it yields at the next block boundary. 0 = no
     * deadline.
     */
    double deadlineS = 0.0;

    /**
     * Execution-attempt budget shared by transient-failure retries and
     * crash-loop quarantine: a transient failure re-queues the job (with
     * 2^attempts backoff) while attempts < maxAttempts, and a spool
     * record found still Running at restart with attempts >= maxAttempts
     * — i.e. one that crashed the daemon that many times — is quarantined
     * instead of re-admitted.
     */
    std::size_t maxAttempts = 3;

    // The request knobs (dataset pointer and hooks stay null — they are
    // bound at materialization time).
    basecall::EvalRequest request;

    /**
     * Validate the whole spec: request knobs (EvalRequest::validate, minus
     * the dataset binding which is materialized later), dataset id, model
     * shape, scenario vocabulary, fault/refresh grammar (a job's faults
     * may not name the daemon's service.* chaos sites). The kind implies
     * the backend family, so the request's selector may not name one, and
     * a job inherits its runner's pool, so it may not override threads.
     * submit, restart and runJobSpec all check this one validator.
     * Returns every violation (empty = valid).
     */
    std::vector<basecall::JobError> validate() const;

    std::string toJson() const;

    /** Strict parse; `out` untouched on failure. */
    static basecall::JobError fromJson(const std::string& text,
                                       JobSpec& out);

    /** Parse from an already-parsed document (wire submit payloads). */
    static basecall::JobError fromJsonValue(const JsonValue& doc,
                                            JobSpec& out);
};

/** Outcome of one executed job, serializable for spool/status/wire. */
struct JobResult
{
    double mean = 0.0;       ///< mean identity (or map identity)
    double stddev = 0.0;     ///< across Monte-Carlo runs (0 otherwise)
    std::size_t runs = 0;    ///< completed Monte-Carlo runs
    std::size_t completedReads = 0;
    std::size_t survivors = 0;
    std::size_t skipped = 0;
    bool interrupted = false; ///< stopped early (shutdown / stop flag)

    std::string toJson() const;
    static basecall::JobError fromJson(const std::string& text,
                                       JobResult& out);
    static basecall::JobError fromJsonValue(const JsonValue& doc,
                                            JobResult& out);
};

/**
 * Materialize and run a spec synchronously: build the dataset and model,
 * bind the fault campaign, streaming sink, stop flag and checkpoint path
 * onto the request and the refresh policy onto the scenario, and dispatch
 * on kind. Nothing process-wide changes, so concurrent calls are
 * independent. This is the
 * single execution path shared by CLI-style direct callers and daemon
 * workers — the daemon adds only observe-only hooks, so both produce
 * bitwise-identical results.
 *
 * The spec must be valid (validate() empty); violations panic like any
 * CLI entry point.
 */
JobResult runJobSpec(
    const JobSpec& spec,
    const std::function<void(const basecall::BlockEvent&)>& on_block = {},
    const std::atomic<bool>* stop_flag = nullptr,
    const std::string& checkpoint_path = {});

} // namespace swordfish::service

#endif // SWORDFISH_SERVICE_JOB_SPEC_H
