/**
 * @file
 * The typed compile-error surface shared by the crossbar backend and the
 * backend registry, plus the one execution-engine selector.
 *
 * Typed errors: compilation failures (unknown backend, shape mismatch
 * against a compiled weight, degenerate device configs, out-of-range remap
 * fractions) are returned as CompileError values rather than panics, so
 * config readers and tests can handle them — util::panic() aborts the
 * process and is reserved for programming errors on paths that validated
 * their inputs earlier.
 */

#ifndef SWORDFISH_CORE_PLAN_H
#define SWORDFISH_CORE_PLAN_H

#include <string>

namespace swordfish::core {

// ---------------------------------------------------------------------------
// Typed compile errors (the pybuda-style BackendCompileFailure surface)
// ---------------------------------------------------------------------------

/** Why a backend failed to initialize or compile. */
enum class CompileFailure
{
    None,                 ///< success
    UnknownBackend,       ///< name not in the registry
    ShapeMismatch,        ///< weight shape differs from the compiled one
    InvalidDeviceConfig,  ///< degenerate memristor device parameters
    InvalidRemapFraction, ///< RSA remap fraction outside [0, 1]
    ScenarioMismatch,     ///< backend family contradicts the scenario
    InvalidNoiseSpec,     ///< malformed composed-noise spec (SWORDFISH_NOISE grammar)
    InvalidEnsemble,      ///< ensemble replica count outside [1, kMaxEnsembleReplicas]
};

/** Stable label for a failure kind (test assertions, log lines). */
const char* compileFailureName(CompileFailure failure);

/** A typed compile error: kind plus a human-readable message. */
struct CompileError
{
    CompileFailure failure = CompileFailure::None;
    std::string message;

    bool ok() const { return failure == CompileFailure::None; }
    explicit operator bool() const { return !ok(); } ///< true on *error*
};

// ---------------------------------------------------------------------------
// The execution engine
// ---------------------------------------------------------------------------

/**
 * The execution engine: Compiled (program every weight's tiles in
 * compile(), then run them) is the only one, and nothing in src/ reads it.
 * ExecMode, BackendSelector and defaultBackendSelector() stay because
 * benchmark/tracing.cpp copies defaultBackendSelector().mode into
 * BackendSpec::mode.
 */
enum class ExecMode
{
    Compiled, ///< weights programmed ahead of the first read
};

/** The engine choice; each evaluation implies its backend family. */
struct BackendSelector
{
    ExecMode mode = ExecMode::Compiled;
};

/** The one selector: a constant, read from no environment variable. */
inline BackendSelector
defaultBackendSelector()
{
    return {};
}

} // namespace swordfish::core

#endif // SWORDFISH_CORE_PLAN_H
